// Command bench is the repository benchmark: four workloads that time
// what users of sleepmst wait on, each checked for correct output, with
// a traced mode that attributes the time to the repo's layers.
//
//	mst-randomized-n4096     certified Randomized-MST runs, n=4096
//	mis-n65536               certified MIS runs, n=65536 (no LDT code)
//	service-mst-small        the certified-MST daemon under closed-loop load
//	mst-randomized-n256-tcp  Randomized-MST with every message on loopback TCP
//
// The benchmark calls only surfaces that the planned message-plane and
// engine refactors keep: problem.Lookup with Run and Verify,
// core.Options{Seed, Trace, Transport, Cancel}, graph.RandomConnected,
// service.BuildGraph, trace.Recorder and ReadJSONL, conform.Suite and
// CheckTrace, the service's Submit, Server and frame codec, and
// transport.NewTCP with its Statser counters.
//
// Usage, from the bench directory (bench/run.sh builds and runs it from
// the repository root the same way):
//
//	go run . -seed 1                       # every workload, one child process each
//	go run . -seed 1 -trace 1              # traced: per-layer metrics and spans
//	go run . -workload mis-n65536 -seed 3  # one workload in this process
//	go run . -compare 'A*.json' 'B*.json'  # compare two sets of result files
//
// With -workload the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the metrics
// are BENCHMARK.json's end_to_end list, or its per_layer list with
// -trace 1. Without -workload each workload runs in its own child
// process, so peak RSS and profiles stay per workload, and the results
// go to -out. The exit status is non-zero when any output fails its
// correctness check.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Set-up repeats until it has run minSetups times and for minSetupTime
// in total; setup_s is the median, so that a set-up of a few
// milliseconds is measured as steadily as one of a second.
const (
	minSetups    = 3
	minSetupTime = 500 * time.Millisecond
)

var inf = math.Inf(1)

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(*runCtx) error
}

// workloads returns the benchmark's workloads; smoke shrinks them to
// toy sizes for bench_test.go. Every op of a simulation workload gets
// its own input where the measuring window allows, because
// Randomized-MST's work varies by 12-15% from input to input and a
// median over few inputs would follow the seed more than the code.
func workloads(smoke bool) []workload {
	mst := simWorkload{problem: "mst/randomized", n: 4096, build: denseRandom, panel: 16, minOps: 5, tracedOps: 2}
	mis := simWorkload{problem: "mis", n: 65536, build: denseRandom, panel: 5, minOps: 4, tracedOps: 2}
	svc := serviceWorkload{minReq: 600, warmup: 20, replay: 200}
	tcp := simWorkload{problem: "mst/randomized", n: 256, build: serviceRandom, tcp: true, panel: 40, minOps: 10, tracedOps: 3}
	if smoke {
		mst.n, mst.panel, mst.minOps = 64, 3, 2
		mis.n, mis.panel, mis.minOps = 64, 2, 2
		svc = serviceWorkload{minReq: 24, warmup: 4, replay: 8}
		tcp.n, tcp.panel, tcp.minOps = 16, 3, 2
	}
	return []workload{
		{"mst-randomized-n4096", mst.run},
		{"mis-n65536", mis.run},
		{"service-mst-small", svc.run},
		{"mst-randomized-n256-tcp", tcp.run},
	}
}

// setupRepeatedly runs setup until the minimums above are met and
// returns the median duration in seconds.
func setupRepeatedly(setup func() error) (float64, error) {
	var times []float64
	var total time.Duration
	for len(times) < minSetups || total < minSetupTime {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// runCtx carries one workload run's settings and collects its results.
type runCtx struct {
	seed        int64
	seconds     time.Duration
	spans       *spanLog // nil unless the run is traced
	profilePath string

	values    map[string]float64
	digest    hash.Hash
	attempted int

	mu       sync.Mutex // fail is called from the service clients
	failed   int
	failures []string
}

func (c *runCtx) set(name string, v float64) { c.values[name] = v }

// fail counts a failed operation and keeps the first few reasons.
func (c *runCtx) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// result is the outcome of one workload run.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"output_digest"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runWorkload runs w in this process. spansPath receives the spans of
// a traced run.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool, spansPath string) (*result, error) {
	c := &runCtx{seed: seed, seconds: seconds, values: map[string]float64{}, digest: sha256.New()}
	if traced {
		c.spans = newSpanLog(w.name, seed)
		c.profilePath = "bench-cpu-" + w.name + ".pprof"
	}
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r := &result{Workload: w.name, Seed: seed, Attempted: c.attempted, Failed: c.failed,
		Digest: hex.EncodeToString(c.digest.Sum(nil)), Metrics: c.values}
	if traced {
		r.Trace = 1
		coverage, rows := c.spans.finish()
		c.set("bench.span_coverage", coverage)
		if err := c.spans.appendTo(spansPath); err != nil {
			return nil, err
		}
		fmt.Printf("self time by span (%s, coverage %.3f):\n", w.name, coverage)
		for _, row := range rows {
			fmt.Printf("  %-28s %6d %12.1f ms\n", row.name, row.count, row.ms)
		}
	}
	for _, f := range c.failures {
		fmt.Fprintf(os.Stderr, "%s: FAIL %s\n", w.name, f)
	}
	r.Correct = c.failed == 0 && c.attempted > 0
	return r, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "run this one workload in-process and print the result line")
		seed      = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = fs.Int("seconds", 0, "measuring window per workload (0 = run_seconds from BENCHMARK.json)")
		traceMode = fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and CPU profiles")
		runs      = fs.Int("runs", 1, "rounds over all workloads, interleaved (without -workload)")
		out       = fs.String("out", "bench-results.json", "results file (without -workload)")
		spansPath = fs.String("spans", "bench-spans.jsonl", "spans file of traced runs")
		compare   = fs.Bool("compare", false, "compare two sets of result files: -compare 'A*.json' 'B*.json'")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two file patterns")
			return 2
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	if *seconds <= 0 {
		window = time.Duration(spec.RunSeconds) * time.Second
	}
	if *name == "" {
		return runSet(spec, *seed, window, *traceMode, *runs, *out, *spansPath)
	}

	var w *workload
	for _, cand := range workloads(false) {
		if cand.name == *name {
			w = &cand
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	// A workload run finishes in well under a minute past its window;
	// one that reaches 170 s has hung somewhere, so it fails loudly
	// instead of running into a caller's time limit.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within 170 s\n", *name)
		os.Exit(1)
	})
	defer watchdog.Stop()
	r, err := runWorkload(*w, *seed, window, *traceMode == 1, *spansPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := report(spec, r, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	if !r.Correct {
		return 1
	}
	return 0
}

// report prints every metric by name with its unit and the output
// digest, and returns the result line: the end-to-end metrics, or the
// per-layer ones for a traced run.
func report(spec *benchSpec, r *result, w io.Writer) (string, error) {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, k, strconv.FormatFloat(r.Metrics[k], 'g', -1, 64), units[k])
	}
	fmt.Fprintf(w, "%s output_digest %s\n", r.Workload, r.Digest)

	want := spec.EndToEnd
	if r.Trace == 1 {
		want = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, m.Name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			if r.Correct {
				return "", fmt.Errorf("%s: metric %s is %v", r.Workload, m.Name, v)
			}
			v = math.MaxFloat64 // only failed ops make a latency infinite
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line), err
}

// resultSet is the results file written without -workload.
type resultSet struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
}

// runSet runs every workload in its own child process, rounds times,
// interleaving the workloads so that slow drift of a shared machine
// spreads over all of them, and writes the results to out.
func runSet(spec *benchSpec, seed int64, window time.Duration, traceMode, rounds int, out, spansPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if traceMode == 1 {
		if err := os.Remove(spansPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	set := resultSet{Seed: seed, Seconds: window.Seconds()}
	status := 0
	for round := 0; round < rounds; round++ {
		for _, w := range workloads(false) {
			r, err := runChild(self, w.name, seed, window, traceMode, spansPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			if !r.Correct {
				status = 1
			}
			set.Runs = append(set.Runs, r)
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if summarize(spec, set.Runs, os.Stdout) {
		status = 1
	}
	return status
}

// runChild runs one workload in a child process, forwarding its
// output, and parses the metric lines and the result line back.
func runChild(self, name string, seed int64, window time.Duration, traceMode int, spansPath string) (*result, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(int(window.Seconds())), "-trace", strconv.Itoa(traceMode), "-spans", spansPath)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &result{Workload: name, Seed: seed, Trace: traceMode, Metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		last = line
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != name {
			continue
		}
		if f[1] == "output_digest" {
			r.Digest = f[2]
		} else if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			r.Metrics[f[1]] = v
		}
	}
	waitErr := cmd.Wait()
	var tail struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(last), &tail); err != nil {
		return nil, fmt.Errorf("no result line (%v)", waitErr)
	}
	r.Correct, r.Attempted, r.Failed = tail.Correct && waitErr == nil, tail.Attempted, tail.Failed
	return r, nil
}
