package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run, recorded by the
// benchmark's own code around a call into one layer of the repo.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 only for the workload's root span
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// rootSpan is the id of the workload's root span, which lasts the whole
// traced run.
const rootSpan = 1

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, so untraced runs share the code path.
type spanLog struct {
	workload string
	seed     int64
	epoch    time.Time

	mu    sync.Mutex // the service clients record spans concurrently
	spans []span
}

func newSpanLog(workload string, seed int64) *spanLog {
	return &spanLog{workload: workload, seed: seed, epoch: time.Now(),
		spans: []span{{Name: "bench.workload", Workload: workload, Seed: seed, ID: rootSpan}}}
}

// start opens a span under parent and returns its id.
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	return l.add(name, parent, time.Now(), time.Time{})
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNS = now
	l.mu.Unlock()
}

// add records the interval [start, end] under parent and returns its
// id; a zero end leaves the span open for end.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	s := span{Name: name, Workload: l.workload, Seed: l.seed, Parent: parent,
		StartNS: start.Sub(l.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.EndNS = end.Sub(l.epoch).Nanoseconds()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, in span order.
func selfTimes(spans []span) []int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.EndNS - s.StartNS) - covered(children[s.ID])
	}
	return out
}

// covered returns the length of the union of the intervals of kids;
// the service clients' spans overlap.
func covered(kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total, curStart, curEnd int64
	for i, k := range kids {
		switch {
		case i == 0:
			curStart, curEnd = k.StartNS, k.EndNS
		case k.StartNS > curEnd:
			total += curEnd - curStart
			curStart, curEnd = k.StartNS, k.EndNS
		case k.EndNS > curEnd:
			curEnd = k.EndNS
		}
	}
	if len(kids) > 0 {
		total += curEnd - curStart
	}
	return total
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name  string
	count int
	ms    float64
}

// finish closes the root span and returns the share of its wall time
// that child spans cover, plus the self time per span name, largest
// first.
func (l *spanLog) finish() (coverage float64, rows []selfRow) {
	l.end(rootSpan)
	self := selfTimes(l.spans)
	byName := map[string]*selfRow{}
	for i, s := range l.spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			byName[s.Name] = r
		}
		r.count++
		r.ms += float64(self[i]) / 1e6
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	wall := l.spans[0].EndNS - l.spans[0].StartNS
	if wall > 0 {
		coverage = 1 - float64(self[0])/float64(wall)
	}
	return coverage, rows
}

// appendTo appends the spans as JSON lines to path.
func (l *spanLog) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
