package core

import (
	"testing"

	"sleepmst/internal/transport"
)

// TestCodecLabels pins the wire kind and the msgs/type/<label> name of
// every message type the core registers. The MOE report and the seven
// GHS types are unlabeled, so their deliveries tally as "other".
func TestCodecLabels(t *testing.T) {
	for _, tc := range []struct {
		msg   interface{}
		kind  uint16
		label string
	}{
		{taFragMsg{}, 32, "ta-frag"},
		{moeInfo{}, 33, ""},
		{bcastMOEMsg{}, 34, "bcast-moe"},
		{boolPayload(false), 35, "bool"},
		{intPayload(0), 36, "int"},
		{validMsg{}, 37, "valid"},
		{colorMsg{}, 38, "color"},
		{mergeCmd{}, 39, "merge-cmd"},
		{nbrList(nil), 40, "nbr-info"},
		{cvColorMsg{}, 41, "cv-color"},
		{cvColorList(nil), 42, "cv-colors"},
		{parentInfo{}, 43, "cv-parent"},
		{colorMsgList(nil), 44, "color-list"},
		{taMOEMsg{}, 45, "ta-moe"},
		{ghsFragMsg{}, 46, ""},
		{ghsInitiate{}, 47, ""},
		{ghsEcho{}, 48, ""},
		{ghsRootChange{}, 49, ""},
		{ghsHalt{}, 50, ""},
		{ghsConnect{}, 51, ""},
		{ghsNewFrag{}, 52, ""},
	} {
		c := transport.CodecOf(tc.msg)
		if c == nil {
			t.Errorf("%T: no codec registered", tc.msg)
			continue
		}
		if c.Kind != tc.kind || c.Label != tc.label || c.Inner != nil {
			t.Errorf("%T: codec kind %d label %q (inner %t), want kind %d label %q",
				tc.msg, c.Kind, c.Label, c.Inner != nil, tc.kind, tc.label)
		}
	}
}
