// Command sleepsim runs one sleeping-model computation and prints its
// metrics, an optional awake-timeline trace, and the verification
// against the problem's correctness oracle. The default problem is
// MST (-problem mst, algorithm selected with -algo); -problem selects
// any problem-suite resident instead, e.g. -problem mis for the
// O(log log n)-awake maximal independent set. With -chaos it instead
// runs a fault-injection sweep: many runs per (algorithm, fault rate)
// cell, each perturbed by a seeded chaos policy and classified by the
// outcome oracle (the MST oracle, or the MIS oracle under -problem
// mis).
//
// Observability: -trace-out records the run as a structured JSONL
// event trace (schema in DESIGN.md §8), -metrics prints the metrics
// registry (awake rounds per phase/step, MOE probes, merge waves,
// message tallies), and -pprof writes CPU and heap profiles.
//
// Examples:
//
//	sleepsim -graph random -n 256 -m 768 -algo randomized
//	sleepsim -graph ring -n 128 -algo deterministic -trace
//	sleepsim -graph sensor -n 200 -radius 0.15 -algo logstar -hist
//	sleepsim -n 64 -algo randomized -trace-out run.jsonl -metrics
//	sleepsim -n 1024 -algo deterministic -pprof det1024
//	sleepsim -chaos drop -rate 0.01 -n 256
//	sleepsim -chaos crash -rate 0,0.05,0.1 -chaos-seeds 10 -json sweep.json
//	sleepsim -problem mis -n 256 -metrics
//	sleepsim -problem mis -chaos drop -rate 0,0.05 -chaos-seeds 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sleepmst"
	"sleepmst/internal/chaos"
	"sleepmst/internal/core"
	"sleepmst/internal/metrics"
	"sleepmst/internal/prof"
	"sleepmst/internal/trace"
)

func main() {
	var (
		graphKind = flag.String("graph", "random", "topology: random|ring|path|grid|complete|sensor")
		n         = flag.Int("n", 128, "number of nodes")
		m         = flag.Int("m", 0, "edges for -graph random (default 3n)")
		rows      = flag.Int("rows", 0, "rows for -graph grid (default sqrt(n))")
		radius    = flag.Float64("radius", 0.2, "radius for -graph sensor")
		seed      = flag.Int64("seed", 1, "seed for topology, weights and algorithm randomness")
		txName    = flag.String("transport", "", "wire backend for deliveries: none (in-memory, default) or tcp")
		problem   = flag.String("problem", "mst", "problem to run: mst (select the algorithm with -algo) or a problem-suite name such as mis or mst/randomized")
		algoName  = flag.String("algo", "randomized", "algorithm for -problem mst: randomized|deterministic|logstar|baseline|ghs")
		idSpace   = flag.Int64("idspace", 0, "reassign random IDs in [1, idspace] (0 = IDs 1..n)")
		bitCap    = flag.Bool("congest", false, "enforce the O(log n)-bit CONGEST message cap")
		showTrace = flag.Bool("trace", false, "print the awake-timeline trace")
		showHist  = flag.Bool("hist", false, "print the awake-count histogram")
		width     = flag.Int("width", 72, "trace width in columns")

		traceOut    = flag.String("trace-out", "", "write the structured JSONL event trace to this file ('-' = stdout)")
		traceCap    = flag.Int("trace-cap", 0, "event-recorder ring capacity (0 = default)")
		showMetrics = flag.Bool("metrics", false, "print the metrics registry after the run")
		pprofOut    = flag.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles")

		chaosFault = flag.String("chaos", "", "chaos sweep fault kind: drop|delay|dup|flip|crash|oversleep (empty = single clean run)")
		rateList   = flag.String("rate", "0,0.01,0.05", "comma-separated fault rates for -chaos (crash: fraction of nodes)")
		chaosSeeds = flag.Int("chaos-seeds", 5, "runs per (algorithm, rate) cell for -chaos")
		chaosAlgos = flag.String("chaos-algos", "randomized,deterministic,baseline", "comma-separated algorithms for -chaos")
		awakeBud   = flag.Int64("chaos-awakebudget", 0, "per-node awake budget enforced during chaos runs (0 = off)")
		jsonOut    = flag.String("json", "", "write the chaos sweep as JSON to this file ('-' = stdout)")
		workers    = flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = serial); aggregates are identical either way")
	)
	flag.Parse()

	stopProf, err := prof.Start(*pprofOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sleepsim:", err)
		os.Exit(1)
	}
	switch {
	case *chaosFault != "" && *problem == "mis":
		err = runMISChaos(*graphKind, *n, *m, *rows, *radius, *seed, *bitCap,
			*chaosFault, *rateList, *chaosSeeds, *awakeBud)
	case *chaosFault != "":
		err = runChaos(*graphKind, *n, *m, *rows, *radius, *seed, *bitCap,
			*chaosFault, *rateList, *chaosSeeds, *chaosAlgos, *awakeBud, *jsonOut, *workers)
	case *problem == "mst":
		err = run(runOpts{
			graphKind: *graphKind, n: *n, m: *m, rows: *rows, radius: *radius,
			seed: *seed, algoName: *algoName, idSpace: *idSpace, bitCap: *bitCap,
			transport: *txName,
			showTrace: *showTrace, showHist: *showHist, width: *width,
			traceOut: *traceOut, traceCap: *traceCap, showMetrics: *showMetrics,
		})
	default:
		err = runProblem(runOpts{
			graphKind: *graphKind, n: *n, m: *m, rows: *rows, radius: *radius,
			seed: *seed, algoName: *problem, idSpace: *idSpace, bitCap: *bitCap,
			transport: *txName,
			showTrace: *showTrace, showHist: *showHist, width: *width,
			traceOut: *traceOut, traceCap: *traceCap, showMetrics: *showMetrics,
		})
	}
	if err == nil {
		err = stopProf()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sleepsim:", err)
		os.Exit(1)
	}
}

// runChaos executes the -chaos sweep: for every (algorithm, rate)
// cell, chaos-seeds runs are perturbed by the selected fault policy
// and classified by the oracle.
func runChaos(graphKind string, n, m, rows int, radius float64, seed int64, bitCap bool,
	faultName, rateList string, seeds int, algoList string, awakeBudget int64, jsonOut string, workers int) error {
	g, err := buildGraph(graphKind, n, m, rows, radius, seed)
	if err != nil {
		return err
	}
	fault, err := chaos.ParseFault(faultName)
	if err != nil {
		return err
	}
	rates, err := parseRates(rateList)
	if err != nil {
		return err
	}
	var runners []chaos.Runner
	for _, name := range strings.Split(algoList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, err := sleepmst.ParseAlgorithm(name)
		if err != nil {
			return err
		}
		runners = append(runners, chaos.Runner{Name: a.String(), Run: a.Runner()})
	}
	opts := core.Options{AwakeBudget: awakeBudget}
	if bitCap {
		opts.BitCap = core.DefaultBitCap(g)
	}
	res, err := chaos.RunSweep(chaos.SweepConfig{
		Graph:    g,
		Runners:  runners,
		Fault:    fault,
		Rates:    rates,
		Seeds:    seeds,
		BaseSeed: seed,
		Opts:     opts,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("graph          : %s n=%d m=%d\n", graphKind, g.N(), g.M())
	fmt.Print(res.Table())
	if jsonOut == "" {
		return nil
	}
	b, err := res.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if jsonOut == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(jsonOut, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("json           : wrote %s\n", jsonOut)
	return nil
}

// parseRates parses a comma-separated list of fault rates.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", part, err)
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("rate %g outside [0, 1]", r)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no rates in %q", s)
	}
	return rates, nil
}

// runOpts bundles the single-run CLI parameters.
type runOpts struct {
	graphKind           string
	n, m, rows          int
	radius              float64
	seed                int64
	algoName            string
	idSpace             int64
	bitCap              bool
	transport           string // wire backend name ('' = in-memory)
	showTrace, showHist bool
	width               int
	traceOut            string // JSONL event-trace destination ('' = off)
	traceCap            int    // recorder ring capacity (0 = default)
	showMetrics         bool
}

func run(o runOpts) error {
	g, err := buildGraph(o.graphKind, o.n, o.m, o.rows, o.radius, o.seed)
	if err != nil {
		return err
	}
	if o.idSpace > 0 {
		sleepmst.WithRandomIDs(g, o.idSpace, o.seed+1)
	}
	algo, err := sleepmst.ParseAlgorithm(o.algoName)
	if err != nil {
		return err
	}
	opts := sleepmst.Options{
		Seed:              o.seed,
		RecordAwakeRounds: o.showTrace,
		RecordPhases:      true,
	}
	if tx, err := sleepmst.ParseTransport(o.transport); err != nil {
		return err
	} else if tx != nil {
		defer tx.Close()
		opts.Transport = tx
	}
	if o.bitCap {
		opts.BitCap = core.DefaultBitCap(g)
	}
	var rec *trace.Recorder
	if o.traceOut != "" {
		rec = trace.NewRecorder(o.traceCap)
		opts.Trace = rec
	}
	var reg *metrics.Registry
	if o.showMetrics {
		reg = metrics.New()
		opts.Metrics = reg
	}
	rep, err := sleepmst.Run(algo, g, opts)
	if err != nil {
		return err
	}
	res := rep.Result
	fmt.Printf("graph          : %s n=%d m=%d maxID=%d\n", o.graphKind, g.N(), g.M(), g.MaxID())
	fmt.Printf("algorithm      : %s\n", algo)
	fmt.Printf("phases         : %d\n", rep.Phases)
	fmt.Printf("awake max/avg  : %d / %.2f\n", res.MaxAwake(), res.MeanAwake())
	fmt.Printf("rounds         : %d (busy %d)\n", res.Rounds, res.BusyRounds)
	fmt.Printf("messages       : sent=%d delivered=%d lost=%d\n",
		res.MessagesSent, res.MessagesDelivered, res.MessagesLost)
	fmt.Printf("bits           : sent=%d, max received per node=%d\n", res.BitsSent, res.MaxBitsReceived())
	fmt.Printf("MST weight     : %d (verified=%v)\n", rep.MSTWeight(), rep.Verified())
	if len(rep.FragmentsPerPhase) > 0 {
		fmt.Printf("fragment decay : %v\n", rep.FragmentsPerPhase)
	}
	if o.showHist {
		fmt.Println()
		fmt.Print(trace.Histogram(res.TraceView(), 50))
	}
	if o.showTrace {
		fmt.Println()
		v := res.TraceView()
		if g.N() > 64 {
			fmt.Printf("(showing first 64 of %d nodes)\n", g.N())
			v = v.Clip(64)
		}
		fmt.Print(trace.Timeline(v, o.width))
	}
	if reg != nil {
		fmt.Println()
		fmt.Print(reg.String())
	}
	if rec != nil {
		if err := writeTrace(rec, o.traceOut); err != nil {
			return err
		}
		meta := rec.Meta()
		fmt.Printf("trace          : %d events (%d dropped) -> %s\n", meta.Events, meta.Dropped, o.traceOut)
	}
	return nil
}

// runProblem executes one problem-suite run (-problem mis,
// mst/randomized, ...): the problem registry supplies the algorithm,
// the awake-budget envelope, and the correctness oracle.
func runProblem(o runOpts) error {
	g, err := buildGraph(o.graphKind, o.n, o.m, o.rows, o.radius, o.seed)
	if err != nil {
		return err
	}
	if o.idSpace > 0 {
		sleepmst.WithRandomIDs(g, o.idSpace, o.seed+1)
	}
	p, err := sleepmst.LookupProblem(o.algoName)
	if err != nil {
		return err
	}
	opts := sleepmst.Options{
		Seed:              o.seed,
		RecordAwakeRounds: o.showTrace,
		RecordPhases:      true,
	}
	if tx, err := sleepmst.ParseTransport(o.transport); err != nil {
		return err
	} else if tx != nil {
		defer tx.Close()
		opts.Transport = tx
	}
	if o.bitCap {
		opts.BitCap = core.DefaultBitCap(g)
	}
	var rec *trace.Recorder
	if o.traceOut != "" {
		rec = trace.NewRecorder(o.traceCap)
		opts.Trace = rec
	}
	// The registry is always on in the problem path so the
	// node-averaged awake complexity can be reported.
	reg := metrics.New()
	opts.Metrics = reg
	r, err := p.Run(g, opts)
	if err != nil {
		return err
	}
	res := r.Sim
	fmt.Printf("graph          : %s n=%d m=%d maxID=%d\n", o.graphKind, g.N(), g.M(), g.MaxID())
	fmt.Printf("problem        : %s\n", p.Name())
	fmt.Printf("phases         : %d\n", r.Phases)
	fmt.Printf("awake max/avg  : %d / %.2f\n", res.MaxAwake(), res.MeanAwake())
	fmt.Printf("awake node-avg : %.2f\n", metrics.NodeAvgAwake(reg))
	if budget, ok := p.Budget(g.N()); ok {
		fmt.Printf("awake budget   : %d (within=%v)\n", budget, res.MaxAwake() <= budget)
	}
	fmt.Printf("rounds         : %d (busy %d)\n", res.Rounds, res.BusyRounds)
	fmt.Printf("messages       : sent=%d delivered=%d lost=%d\n",
		res.MessagesSent, res.MessagesDelivered, res.MessagesLost)
	fmt.Printf("bits           : sent=%d, max received per node=%d\n", res.BitsSent, res.MaxBitsReceived())
	verified := p.Verify(g, r) == nil
	switch {
	case r.InMIS != nil:
		size := 0
		for _, in := range r.InMIS {
			if in {
				size++
			}
		}
		fmt.Printf("MIS size       : %d (verified=%v)\n", size, verified)
	case r.Outcome != nil:
		var weight int64
		for _, e := range r.Outcome.MSTEdges {
			weight += e.Weight
		}
		fmt.Printf("MST weight     : %d (verified=%v)\n", weight, verified)
	}
	if o.showHist {
		fmt.Println()
		fmt.Print(trace.Histogram(res.TraceView(), 50))
	}
	if o.showTrace {
		fmt.Println()
		v := res.TraceView()
		if g.N() > 64 {
			fmt.Printf("(showing first 64 of %d nodes)\n", g.N())
			v = v.Clip(64)
		}
		fmt.Print(trace.Timeline(v, o.width))
	}
	if o.showMetrics {
		fmt.Println()
		fmt.Print(reg.String())
	}
	if rec != nil {
		if err := writeTrace(rec, o.traceOut); err != nil {
			return err
		}
		meta := rec.Meta()
		fmt.Printf("trace          : %d events (%d dropped) -> %s\n", meta.Events, meta.Dropped, o.traceOut)
	}
	return nil
}

// runMISChaos executes the -chaos sweep for -problem mis: for every
// rate, chaos-seeds MIS runs are perturbed by the selected fault
// policy and classified by the MIS outcome oracle.
func runMISChaos(graphKind string, n, m, rows int, radius float64, seed int64, bitCap bool,
	faultName, rateList string, seeds int, awakeBudget int64) error {
	g, err := buildGraph(graphKind, n, m, rows, radius, seed)
	if err != nil {
		return err
	}
	fault, err := chaos.ParseFault(faultName)
	if err != nil {
		return err
	}
	rates, err := parseRates(rateList)
	if err != nil {
		return err
	}
	if seeds <= 0 {
		seeds = 5
	}
	fmt.Printf("graph          : %s n=%d m=%d\n", graphKind, g.N(), g.M())
	fmt.Printf("problem        : mis fault=%s runs/cell=%d\n", fault, seeds)
	fmt.Printf("%8s", "rate")
	for _, c := range chaos.MISClassifications() {
		fmt.Printf(" %15s", c)
	}
	fmt.Println()
	for _, rate := range rates {
		counts := make(map[sleepmst.MISClassification]int)
		for i := 0; i < seeds; i++ {
			runSeed := seed + int64(i)
			opts := sleepmst.Options{
				Seed:        runSeed,
				AwakeBudget: awakeBudget,
				Interceptor: chaos.New(fault.PolicyOptions(rate, runSeed)),
			}
			if bitCap {
				opts.BitCap = core.DefaultBitCap(g)
			}
			r, err := sleepmst.RunMIS(g, opts)
			var inMIS []bool
			if r != nil {
				inMIS = r.InMIS
			}
			counts[sleepmst.ClassifyMISRun(g, inMIS, err)]++
		}
		fmt.Printf("%8.3f", rate)
		for _, c := range chaos.MISClassifications() {
			fmt.Printf(" %15d", counts[c])
		}
		fmt.Println()
	}
	return nil
}

// writeTrace serializes the recorded events as JSONL to path ('-' =
// stdout).
func writeTrace(rec *trace.Recorder, path string) error {
	if path == "-" {
		return rec.WriteJSONL(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildGraph(kind string, n, m, rows int, radius float64, seed int64) (*sleepmst.Graph, error) {
	switch kind {
	case "random":
		if m <= 0 {
			m = 3 * n
		}
		return sleepmst.RandomConnected(n, m, seed), nil
	case "ring":
		return sleepmst.Ring(n, seed), nil
	case "path":
		return sleepmst.Path(n, seed), nil
	case "grid":
		if rows <= 0 {
			rows = intSqrt(n)
		}
		return sleepmst.Grid(rows, (n+rows-1)/rows, seed), nil
	case "complete":
		return sleepmst.Complete(n, seed), nil
	case "sensor":
		return sleepmst.SensorNetwork(n, radius, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

func intSqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
