package core

import (
	"reflect"

	"sleepmst/internal/graph"
	"sleepmst/internal/transport"
)

// Wire codecs for the core MST message vocabulary (transport kind
// range 32-63), registered at init so the algorithms run unchanged
// over a real transport. The encodings mirror the Bits() declarations
// field for field; list payloads carry a uvarint length prefix.

// encodeKey/decodeKey serialize a graph.WeightKey in canonical order.
func encodeKey(k graph.WeightKey, w *transport.Writer) {
	w.Int(k.W)
	w.Int(k.A)
	w.Int(k.B)
}

func decodeKey(r *transport.Reader) graph.WeightKey {
	return graph.WeightKey{W: r.Int(), A: r.Int(), B: r.Int()}
}

func init() {
	transport.Register(transport.Codec{
		Kind: 32, Label: "ta-frag", Type: reflect.TypeOf(taFragMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(taFragMsg)
			w.Int(m.id)
			w.Int(m.fragID)
			w.Int(int64(m.level))
		},
		Decode: func(r *transport.Reader) interface{} {
			return taFragMsg{id: r.Int(), fragID: r.Int(), level: int(r.Int())}
		},
	})
	transport.Register(transport.Codec{
		Kind: 33, Type: reflect.TypeOf(moeInfo{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(moeInfo)
			encodeKey(m.key, w)
			w.Int(m.ownerID)
			w.Int(int64(m.ownerPort))
		},
		Decode: func(r *transport.Reader) interface{} {
			return moeInfo{key: decodeKey(r), ownerID: r.Int(), ownerPort: int(r.Int())}
		},
	})
	transport.Register(transport.Codec{
		Kind: 34, Label: "bcast-moe", Type: reflect.TypeOf(bcastMOEMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(bcastMOEMsg)
			w.Bool(m.exists)
			encodeKey(m.moe.key, w)
			w.Int(m.moe.ownerID)
			w.Int(int64(m.moe.ownerPort))
			w.Bool(m.coin)
		},
		Decode: func(r *transport.Reader) interface{} {
			var m bcastMOEMsg
			m.exists = r.Bool()
			m.moe.key = decodeKey(r)
			m.moe.ownerID = r.Int()
			m.moe.ownerPort = int(r.Int())
			m.coin = r.Bool()
			return m
		},
	})
	transport.Register(transport.Codec{
		Kind: 35, Label: "bool", Type: reflect.TypeOf(boolPayload(false)),
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Bool(bool(msg.(boolPayload)))
		},
		Decode: func(r *transport.Reader) interface{} {
			return boolPayload(r.Bool())
		},
	})
	transport.Register(transport.Codec{
		Kind: 36, Label: "int", Type: reflect.TypeOf(intPayload(0)),
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Int(int64(msg.(intPayload)))
		},
		Decode: func(r *transport.Reader) interface{} {
			return intPayload(r.Int())
		},
	})
	transport.Register(transport.Codec{
		Kind: 37, Label: "valid", Type: reflect.TypeOf(validMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Bool(msg.(validMsg).accepted)
		},
		Decode: func(r *transport.Reader) interface{} {
			return validMsg{accepted: r.Bool()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 38, Label: "color", Type: reflect.TypeOf(colorMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(colorMsg)
			w.Int(m.fragID)
			w.Int(int64(m.color))
		},
		Decode: func(r *transport.Reader) interface{} {
			return colorMsg{fragID: r.Int(), color: Color(r.Int())}
		},
	})
	transport.Register(transport.Codec{
		Kind: 39, Label: "merge-cmd", Type: reflect.TypeOf(mergeCmd{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(mergeCmd)
			w.Bool(m.merging)
			w.Int(m.hostID)
			w.Int(int64(m.hostPort))
		},
		Decode: func(r *transport.Reader) interface{} {
			return mergeCmd{merging: r.Bool(), hostID: r.Int(), hostPort: int(r.Int())}
		},
	})
	transport.Register(transport.Codec{
		Kind: 40, Label: "nbr-info", Type: reflect.TypeOf(nbrList(nil)),
		Encode: func(msg interface{}, w *transport.Writer) {
			l := msg.(nbrList)
			w.Uint(uint64(len(l)))
			for _, e := range l {
				w.Int(e.fragID)
				w.Int(e.hostID)
				w.Int(int64(e.hostPort))
			}
		},
		Decode: func(r *transport.Reader) interface{} {
			n := r.Uvarint()
			l := make(nbrList, 0, n)
			for i := uint64(0); i < n && r.Err() == nil; i++ {
				l = append(l, nbrEntry{fragID: r.Int(), hostID: r.Int(), hostPort: int(r.Int())})
			}
			return l
		},
	})
	transport.Register(transport.Codec{
		Kind: 41, Label: "cv-color", Type: reflect.TypeOf(cvColorMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(cvColorMsg)
			w.Int(m.fragID)
			w.Int(m.color)
		},
		Decode: func(r *transport.Reader) interface{} {
			return cvColorMsg{fragID: r.Int(), color: r.Int()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 42, Label: "cv-colors", Type: reflect.TypeOf(cvColorList(nil)),
		Encode: func(msg interface{}, w *transport.Writer) {
			l := msg.(cvColorList)
			w.Uint(uint64(len(l)))
			for _, m := range l {
				w.Int(m.fragID)
				w.Int(m.color)
			}
		},
		Decode: func(r *transport.Reader) interface{} {
			n := r.Uvarint()
			l := make(cvColorList, 0, n)
			for i := uint64(0); i < n && r.Err() == nil; i++ {
				l = append(l, cvColorMsg{fragID: r.Int(), color: r.Int()})
			}
			return l
		},
	})
	transport.Register(transport.Codec{
		Kind: 43, Label: "cv-parent", Type: reflect.TypeOf(parentInfo{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(parentInfo)
			w.Bool(m.hasParent)
			w.Int(m.fragID)
		},
		Decode: func(r *transport.Reader) interface{} {
			return parentInfo{hasParent: r.Bool(), fragID: r.Int()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 44, Label: "color-list", Type: reflect.TypeOf(colorMsgList(nil)),
		Encode: func(msg interface{}, w *transport.Writer) {
			l := msg.(colorMsgList)
			w.Uint(uint64(len(l)))
			for _, m := range l {
				w.Int(m.fragID)
				w.Int(int64(m.color))
			}
		},
		Decode: func(r *transport.Reader) interface{} {
			n := r.Uvarint()
			l := make(colorMsgList, 0, n)
			for i := uint64(0); i < n && r.Err() == nil; i++ {
				l = append(l, colorMsg{fragID: r.Int(), color: Color(r.Int())})
			}
			return l
		},
	})
	transport.Register(transport.Codec{
		Kind: 45, Label: "ta-moe", Type: reflect.TypeOf(taMOEMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(taMOEMsg)
			w.Int(m.fragID)
			w.Bool(m.coin)
			w.Bool(m.isMOE)
		},
		Decode: func(r *transport.Reader) interface{} {
			return taMOEMsg{fragID: r.Int(), coin: r.Bool(), isMOE: r.Bool()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 46, Type: reflect.TypeOf(ghsFragMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Int(msg.(ghsFragMsg).fragID)
		},
		Decode: func(r *transport.Reader) interface{} {
			return ghsFragMsg{fragID: r.Int()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 47, Type: reflect.TypeOf(ghsInitiate{}),
		Encode: func(msg interface{}, w *transport.Writer) {},
		Decode: func(r *transport.Reader) interface{} { return ghsInitiate{} },
	})
	transport.Register(transport.Codec{
		Kind: 48, Type: reflect.TypeOf(ghsEcho{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			m := msg.(ghsEcho)
			w.Bool(m.has)
			encodeKey(m.key, w)
		},
		Decode: func(r *transport.Reader) interface{} {
			return ghsEcho{has: r.Bool(), key: decodeKey(r)}
		},
	})
	transport.Register(transport.Codec{
		Kind: 49, Type: reflect.TypeOf(ghsRootChange{}),
		Encode: func(msg interface{}, w *transport.Writer) {},
		Decode: func(r *transport.Reader) interface{} { return ghsRootChange{} },
	})
	transport.Register(transport.Codec{
		Kind: 50, Type: reflect.TypeOf(ghsHalt{}),
		Encode: func(msg interface{}, w *transport.Writer) {},
		Decode: func(r *transport.Reader) interface{} { return ghsHalt{} },
	})
	transport.Register(transport.Codec{
		Kind: 51, Type: reflect.TypeOf(ghsConnect{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Int(msg.(ghsConnect).fragID)
		},
		Decode: func(r *transport.Reader) interface{} {
			return ghsConnect{fragID: r.Int()}
		},
	})
	transport.Register(transport.Codec{
		Kind: 52, Type: reflect.TypeOf(ghsNewFrag{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			w.Int(msg.(ghsNewFrag).fragID)
		},
		Decode: func(r *transport.Reader) interface{} {
			return ghsNewFrag{fragID: r.Int()}
		},
	})
}
