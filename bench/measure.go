package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json: the workloads and, for every metric,
// its unit, its better direction and, end to end, the share of the
// baseline median by which it may worsen.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent (the bench directory).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; it is 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// here match those computed from the same runs elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// rssSampler samples the process's resident set size every 20 ms. Its
// 95th percentile is steadier than the peak, which follows the timing
// of single garbage collections.
type rssSampler struct {
	stopc chan struct{}
	done  chan []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var mbs []float64
		for {
			if mb, err := rssMB(); err == nil {
				mbs = append(mbs, mb)
			}
			select {
			case <-tick.C:
			case <-s.stopc:
				s.done <- mbs
				return
			}
		}
	}()
	return s
}

// stop ends sampling and returns the 95th percentile in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	return quantile(<-s.done, 0.95)
}

// rssMB returns the process's resident set size in MB.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS line in /proc/self/status")
}
