package problem

import (
	"reflect"

	"sleepmst/internal/transport"
)

// Wire codecs for the problem-suite message vocabulary (transport
// kind range 64-79), registered at init so every registered problem
// can run over a real transport without further setup.

func init() {
	transport.Register(transport.Codec{
		Kind: 64, Label: "mis-sample", Type: reflect.TypeOf(misSampleMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(misSampleMsg)
			w.Int(m.id)
			w.Uint(uint64(m.rank))
			w.Bool(m.candidate)
		},
		Decode: func(r *transport.Reader) interface{} {
			return misSampleMsg{id: r.Int(), rank: uint32(r.Uvarint()), candidate: r.Bool()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 65, Label: "mis-join", Type: reflect.TypeOf(misJoinMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {},
		Decode: func(r *transport.Reader) interface{} { return misJoinMsg{} },
	})
	transport.Register(transport.Codec{
		Kind: 66, Label: "mis-sync", Type: reflect.TypeOf(misSyncMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Int(msg.(misSyncMsg).id)
		},
		Decode: func(r *transport.Reader) interface{} {
			return misSyncMsg{id: r.Int()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 67, Label: "mis-decide", Type: reflect.TypeOf(misDecideMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Bool(msg.(misDecideMsg).join)
		},
		Decode: func(r *transport.Reader) interface{} {
			return misDecideMsg{join: r.Bool()}
		},
	})
}
