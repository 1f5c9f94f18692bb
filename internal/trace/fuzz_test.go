package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadJSONL hardens the trace reader against arbitrary input: it
// must never panic, and whatever it does accept must round-trip —
// re-rendering the parsed events through the canonical writer and
// re-parsing must reproduce the exact same events. The committed
// corpus under testdata/fuzz/FuzzReadJSONL seeds the interesting
// shapes: full valid traces, truncated lines, negative coordinates,
// unknown kinds, and overflowing numbers.
func FuzzReadJSONL(f *testing.F) {
	valid := `{"k":"begin","n":4}
{"k":"phase","r":1,"v":0,"ph":1,"f":7}
{"k":"awake","r":1,"v":0}
{"k":"send","r":1,"v":0,"p":0,"to":1}
{"k":"deliver","r":1,"v":1,"p":0,"from":0}
{"k":"lost","r":1,"v":2,"p":1,"to":3}
{"k":"sleep","r":4,"v":3,"from":1}
{"k":"step","r":2,"v":0,"ph":1,"st":"find-moe","aw":1}
{"k":"merge","r":2,"v":0,"f":3,"pf":7}
{"k":"crash","r":2,"v":2}
{"k":"nbrs","r":2,"v":0,"ph":1,"deg":3}
{"k":"end","rounds":4,"events":10,"dropped":0}
`
	seeds := []string{
		valid,
		`{"k":"begin","n":4}` + "\n" + `{"k":"awake","r":1`,               // truncated line
		`{"k":"awake","r":-1,"v":0}`,                                      // negative coordinate
		`{"k":"mystery","r":1,"v":0}`,                                     // unknown kind
		`{"k":"step","r":1,"v":0,"ph":1,"st":"warp","aw":1}`,              // unknown step
		`{"k":"deliver","r":1,"v":1,"p":0,"from":99999999999}`,            // sender overflows int32
		`{"k":"awake","r":9223372036854775807,"v":2147483647}`,            // extreme but valid numbers
		"\n\n  \n" + `{"k":"begin","n":1}` + "\n\n",                       // blank-line padding
		`{"k":"send","r":1,"v":0,"p":0,"to":2147483648}`,                  // receiver overflows int32
		strings.Repeat(`{"k":"awake","r":1,"v":0}`+"\n", 64) + "not json", // trailing garbage
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, ev := range events {
			if ev.Kind > KindNbrs {
				t.Fatalf("accepted event with unknown kind %d", ev.Kind)
			}
		}
		// Accepted traces must round-trip through the canonical writer.
		var b strings.Builder
		fmt.Fprintf(&b, `{"k":"begin","n":%d}`+"\n", meta.N)
		for _, ev := range events {
			b.WriteString(ev.String())
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, `{"k":"end","rounds":%d,"events":%d,"dropped":%d}`+"\n", meta.Rounds, meta.Events, meta.Dropped)
		meta2, events2, err := ReadJSONL(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-parse of accepted trace failed: %v", err)
		}
		if meta2 != meta {
			t.Fatalf("meta did not round-trip: %+v vs %+v", meta, meta2)
		}
		if len(events2) != len(events) {
			t.Fatalf("event count did not round-trip: %d vs %d", len(events), len(events2))
		}
		for i := range events {
			if events[i] != events2[i] {
				t.Fatalf("event %d did not round-trip: %+v vs %+v", i, events[i], events2[i])
			}
		}
	})
}
