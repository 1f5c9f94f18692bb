package ldt

import (
	"reflect"

	"sleepmst/internal/graph"
	"sleepmst/internal/transport"
)

// Wire codecs for the LDT message vocabulary (transport kind range
// 16-31). Registration happens at init so any run that threads a
// transport under the simulator can ship LDT waves without further
// setup; the encodings mirror the Bits() declarations field for field.
// A wave tallies under its payload's label ("wave-upcast-min"), so
// wave-carried traffic stays distinct from direct exchanges.

func init() {
	transport.Register(transport.Codec{
		Kind: 16, Label: "wave", Type: reflect.TypeOf(wireMsg{}),
		Inner: func(msg interface{}) interface{} { return msg.(wireMsg).payload },
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Nested(msg.(wireMsg).payload)
		},
		Decode: func(r *transport.Reader) interface{} {
			return wireMsg{payload: r.Nested()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 17, Label: "upcast-min", Type: reflect.TypeOf(MinItem{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(MinItem)
			w.Int(m.Key.W)
			w.Int(m.Key.A)
			w.Int(m.Key.B)
			w.Nested(m.Payload)
		},
		Decode: func(r *transport.Reader) interface{} {
			return MinItem{
				Key:     graph.WeightKey{W: r.Int(), A: r.Int(), B: r.Int()},
				Payload: r.Nested(),
			}
		},
	})
	transport.Register(transport.Codec{
		Kind: 18, Label: "ta-merge", Type: reflect.TypeOf(taMergeMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(taMergeMsg)
			w.Int(m.fragID)
			w.Int(int64(m.level))
			w.Bool(m.attach)
		},
		Decode: func(r *transport.Reader) interface{} {
			return taMergeMsg{fragID: r.Int(), level: int(r.Int()), attach: r.Bool()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 19, Label: "merge-wave", Type: reflect.TypeOf(waveMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(waveMsg)
			w.Int(m.fragID)
			w.Int(int64(m.level))
			w.Bool(m.empty)
		},
		Decode: func(r *transport.Reader) interface{} {
			return waveMsg{fragID: r.Int(), level: int(r.Int()), empty: r.Bool()}
		},
	})
}
