// Command mstbench regenerates the paper's quantitative content:
//
//	-exp table1  — Table 1: awake/round complexity of Randomized-MST
//	               and Deterministic-MST (plus the Corollary 1 variant
//	               and the always-awake baseline), with fitted
//	               constants against the claimed envelopes.
//	-exp thm3    — Theorem 3: heaviest-edge separation and the
//	               Lemma 11 knowledge-segment game on rings.
//	-exp fig1    — Figure 1 / Observation 1: G_rc construction and its
//	               Θ(c / log n) diameter.
//	-exp thm4    — Theorem 4: awake × rounds trade-off and congestion
//	               on G_rc, plus the end-to-end SD→MST reduction.
//	-exp decay   — Lemma 1 / Lemma 5: per-phase fragment decay.
//	-exp all     — every experiment above.
//	-exp bench   — the benchmark-regression suite: wall-clock and
//	               allocations per run over (algorithm × n × seed),
//	               written as BENCH_<label>.json; with -compare
//	               old.json the process exits non-zero on regression.
//	-exp trace   — per-phase awake-budget breakdown from a structured
//	               event trace: run each -trace-algos algorithm with
//	               the recorder on (optionally writing the JSONL to
//	               -trace-out), or summarize an existing trace given
//	               with -trace-in.
//	-exp conform — trace-replay conformance: run each -trace-algos
//	               problem (default: the three sleeping MST algorithms
//	               plus mis; problem-qualified names like mis or
//	               mst/randomized and bare MST aliases both work) at
//	               the largest -sizes value and verify the paper's
//	               invariant catalog on the trace (awake budgets,
//	               merge waves, sparsification degree, causality) plus
//	               the problem's correctness oracle (MST weight or MIS
//	               validity); or check an existing -trace-in stream,
//	               with -conform-algo naming its problem. Unknown
//	               names are rejected with the valid choices. The
//	               verdicts go to stdout and, with -conform-out, to a
//	               machine-readable JSON artifact; exits non-zero on
//	               any failed invariant.
//	-exp modelcheck — bounded model checking: exhaustively explore
//	               every admissible schedule of -problem on the small
//	               -topo topology (path<n>|ring<n>|star<n>|k<n>) up to
//	               -depth non-default choices — adversarial within-round
//	               routing orders by default, plus the opt-in chaos
//	               extensions of scheduler oversleep (-mc-oversleep k)
//	               and single-message drops (-mc-faults) — and check
//	               the invariant catalog plus the problem oracle on
//	               every schedule. The verdict (states explored,
//	               branches pruned, violations) goes to stdout and,
//	               with -mc-out, to a schema-versioned JSON artifact;
//	               -mc-cex PREFIX writes the baseline and each
//	               counterexample trace for cmd/tracediff. Exits
//	               non-zero on any violation.
//
// -pprof <prefix> writes CPU and heap profiles of whatever the
// invocation runs.
//
// Experiment grids fan out across -workers cores (default GOMAXPROCS)
// through the internal/sweep engine; aggregates are identical for
// every worker count.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"sleepmst"
	"sleepmst/internal/core"
	"sleepmst/internal/lowerbound"
	"sleepmst/internal/prof"
	"sleepmst/internal/stats"
	"sleepmst/internal/sweep"
	"sleepmst/internal/trace"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|thm3|fig1|thm4|decay|all|bench|trace|conform|modelcheck")
		sizes   = flag.String("sizes", "32,64,128,256,512", "comma-separated n values for sweeps")
		seeds   = flag.Int("seeds", 3, "seeds per configuration")
		degF    = flag.Int("deg", 3, "edge density multiplier (m = deg*n)")
		workers = flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = serial)")
		txName  = flag.String("transport", "", "wire backend for -exp conform fresh runs: none (in-memory, default) or tcp")

		label       = flag.String("label", "dev", "label for the -exp bench artifact (BENCH_<label>.json)")
		jsonOut     = flag.String("json", "", "bench artifact path (default BENCH_<label>.json; implies -exp bench)")
		compareOld  = flag.String("compare", "", "baseline BENCH_*.json to compare against; exit 1 on regression (implies -exp bench)")
		compareWith = flag.String("with", "", "compare -compare against this BENCH_*.json instead of running the suite")
		benchAlgosF = flag.String("bench-algos", "", "comma-separated algorithms for -exp bench (default randomized,baseline,ghs; trim for scale runs)")

		pprofOut   = flag.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles")
		traceAlgos = flag.String("trace-algos", "randomized,deterministic", "comma-separated algorithms for -exp trace")
		traceOut   = flag.String("trace-out", "", "write -exp trace JSONL traces to this path (multi-algo: '.<algo>' inserted)")
		traceIn    = flag.String("trace-in", "", "summarize this JSONL trace instead of running (implies -exp trace)")
		traceCap   = flag.Int("trace-cap", 0, "events -exp trace keeps: the first N events in canonical order; the end line counts the rest as dropped (0 = 262144)")

		conformAlgo = flag.String("conform-algo", "", "problem that produced the -trace-in stream, e.g. mis or mst/randomized (enables its awake-budget check)")
		conformOut  = flag.String("conform-out", "", "write -exp conform verdicts to this path as JSON")

		mcTopo      = flag.String("topo", "ring4", "-exp modelcheck topology: path<n>|ring<n>|star<n>|k<n> (n <= 6 recommended)")
		mcProblem   = flag.String("problem", "mst/randomized", "-exp modelcheck problem (qualified name or bare MST alias)")
		mcDepth     = flag.Int("depth", 2, "-exp modelcheck deviation bound: max non-default choices per schedule")
		mcSeed      = flag.Int64("mc-seed", 1, "-exp modelcheck run seed (exploration is exhaustive per seed)")
		mcOversleep = flag.Int("mc-oversleep", 0, "-exp modelcheck chaos extension: also branch on oversleeping a parking node by 1..k extra rounds (0 = clean model)")
		mcFaults    = flag.Bool("mc-faults", false, "-exp modelcheck: also branch on single-message drops")
		mcSlack     = flag.Float64("mc-slack", 0, "-exp modelcheck awake-budget slack on perturbed schedules (0 = default 2.0)")
		mcNoMemo    = flag.Bool("mc-no-memo", false, "-exp modelcheck: disable state-hash pruning (visit every schedule)")
		mcOut       = flag.String("mc-out", "", "write the -exp modelcheck verdict to this path as JSON")
		mcCex       = flag.String("mc-cex", "", "write -exp modelcheck baseline + counterexample traces as <prefix>.baseline.jsonl / <prefix>.cexN.jsonl")
	)
	flag.Parse()

	ns, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
	h := &harness{ns: ns, seeds: *seeds, deg: *degF, workers: *workers, txName: *txName}
	if _, err := sleepmst.ParseTransport(*txName); err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
	if *benchAlgosF != "" {
		for _, f := range strings.Split(*benchAlgosF, ",") {
			a, err := sleepmst.ParseAlgorithm(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintln(os.Stderr, "mstbench:", err)
				os.Exit(1)
			}
			h.algos = append(h.algos, a)
		}
	}

	stopProf, err := prof.Start(*pprofOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	if *exp == "modelcheck" {
		exit(h.modelcheckCommand(mcFlags{
			topo:      *mcTopo,
			problem:   *mcProblem,
			depth:     *mcDepth,
			seed:      *mcSeed,
			oversleep: *mcOversleep,
			faults:    *mcFaults,
			slack:     *mcSlack,
			noMemo:    *mcNoMemo,
			out:       *mcOut,
			cex:       *mcCex,
		}))
	}
	if *exp == "conform" {
		algos := *traceAlgos
		if !flagWasSet("trace-algos") {
			algos = "randomized,deterministic,logstar,mis"
		}
		exit(h.conformCommand(algos, *traceIn, *conformAlgo, *conformOut))
	}
	if *exp == "trace" || *traceIn != "" {
		exit(h.traceCommand(*traceAlgos, *traceIn, *traceOut, *traceCap))
	}
	if *exp == "bench" || *jsonOut != "" || *compareOld != "" {
		exit(h.benchCommand(*label, *jsonOut, *compareOld, *compareWith))
	}

	run := map[string]func(){
		"table1": h.table1,
		"thm3":   h.theorem3,
		"fig1":   h.figure1,
		"thm4":   h.theorem4,
		"decay":  h.decay,
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "decay", "thm3", "fig1", "thm4"} {
			run[name]()
		}
		exit(0)
	}
	f, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "mstbench: unknown experiment %q\n", *exp)
		exit(1)
	}
	f()
	exit(0)
}

// traceCommand implements -exp trace. With traceIn it summarizes an
// existing JSONL trace; otherwise it runs every listed algorithm at
// the largest -sizes value with the event recorder on and prints each
// run's per-phase awake-budget table. traceCap bounds the events the
// recorder keeps, the run's first ones (0 = trace.DefaultCapacity);
// when a big run exceeds it the table covers only the run's first
// rounds, so raise the cap until dropped=0 for budget-accounting runs.
func (h *harness) traceCommand(algoList, traceIn, traceOut string, traceCap int) int {
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		meta, events, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		fmt.Printf("=== trace summary: %s ===\n", traceIn)
		fmt.Print(trace.Summarize(meta, events).Table())
		return 0
	}
	var algos []sleepmst.Algorithm
	for _, name := range strings.Split(algoList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, err := sleepmst.ParseAlgorithm(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		algos = append(algos, a)
	}
	n := h.ns[len(h.ns)-1]
	fmt.Println("=== per-phase awake budget (structured event trace) ===")
	for _, a := range algos {
		g := sleepmst.RandomConnected(n, h.deg*n, int64(n*1000))
		rec := sleepmst.NewTraceRecorder(traceCap)
		rep, err := sleepmst.Run(a, g, sleepmst.Options{Seed: 1, Trace: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		if !rep.Verified() {
			fmt.Fprintf(os.Stderr, "mstbench: %s n=%d: MST mismatch\n", a, n)
			return 1
		}
		fmt.Printf("--- %s (n=%d) ---\n", a, n)
		meta, events := rec.Meta(), rec.Events()
		fmt.Print(trace.Summarize(meta, events).Table())
		fmt.Println()
		if traceOut == "" {
			continue
		}
		path := traceOut
		if len(algos) > 1 {
			path = algoTracePath(traceOut, a.String())
		}
		if err := writeTraceFile(path, meta, events); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n\n", path)
	}
	return 0
}

// algoTracePath inserts the algorithm name before the extension:
// out.jsonl -> out.randomized.jsonl.
func algoTracePath(path, algo string) string {
	if base, ok := strings.CutSuffix(path, ".jsonl"); ok {
		return base + "." + algo + ".jsonl"
	}
	return path + "." + algo
}

// writeTraceFile serializes an ordered trace as JSONL.
func writeTraceFile(path string, meta trace.Meta, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteEventsJSONL(f, meta, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 4 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

type harness struct {
	ns      []int
	seeds   int
	deg     int
	workers int
	// txName is the -transport wire backend for -exp conform fresh
	// runs ("" = in-memory delivery).
	txName string
	// algos is the -exp bench suite (nil = the default benchAlgos);
	// -bench-algos trims it, e.g. to just `randomized` for scale runs
	// where ClassicGHS's O(n log n) all-awake rounds are unaffordable.
	algos []sleepmst.Algorithm
}

// benchSuite resolves the algorithms the bench experiment measures.
func (h *harness) benchSuite() []sleepmst.Algorithm {
	if len(h.algos) > 0 {
		return h.algos
	}
	return benchAlgos
}

// sweep runs the algorithm over the size sweep and returns per-size
// mean awake and rounds. The (size × seed) grid fans out across the
// worker pool; each job derives its graph and seed from its own grid
// coordinates, so the means are identical for every worker count.
func (h *harness) sweep(a sleepmst.Algorithm, maxN int) (ns []int, awake, rounds []float64) {
	for _, n := range h.ns {
		if maxN > 0 && n > maxN {
			continue
		}
		ns = append(ns, n)
	}
	type metrics struct{ awake, rounds float64 }
	grid := sweep.NewGrid(len(ns), h.seeds)
	results, err := sweep.Run(sweep.Config{Workers: h.workers}, grid.Size(), func(idx int) (metrics, error) {
		c := grid.Coords(idx)
		n, s := ns[c[0]], c[1]
		g := sleepmst.RandomConnected(n, h.deg*n, int64(n*1000+s))
		rep, err := sleepmst.Run(a, g, sleepmst.Options{Seed: int64(s)})
		if err != nil {
			return metrics{}, fmt.Errorf("%s n=%d seed=%d: %w", a, n, s, err)
		}
		if !rep.Verified() {
			return metrics{}, fmt.Errorf("%s n=%d seed=%d: MST mismatch", a, n, s)
		}
		return metrics{awake: float64(rep.AwakeComplexity()), rounds: float64(rep.RoundComplexity())}, nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
	for i := range ns {
		var aw, rd float64
		for s := 0; s < h.seeds; s++ {
			m := results[i*h.seeds+s]
			aw += m.awake
			rd += m.rounds
		}
		awake = append(awake, aw/float64(h.seeds))
		rounds = append(rounds, rd/float64(h.seeds))
	}
	return ns, awake, rounds
}

func (h *harness) table1() {
	fmt.Println("=== Table 1: awake and round complexity (measured, mean over seeds) ===")
	fmt.Println("paper: Randomized-MST  AT = O(log n),        RT = O(n log n)")
	fmt.Println("paper: Deterministic   AT = O(log n),        RT = O(nN log n), here N = n")
	fmt.Println("paper: Corollary 1     AT = O(log n log* n), RT = O(n log n log* n)")
	fmt.Println("paper: traditional     AT = RT (always awake); both the re-charged")
	fmt.Println("       baseline and an independent classic GHS implementation")
	fmt.Println()

	type row struct {
		algo    sleepmst.Algorithm
		maxN    int
		atEnv   func(n float64) float64 // awake envelope
		rtEnv   func(n float64) float64 // rounds envelope
		atLabel string
		rtLabel string
	}
	logn := func(n float64) float64 { return math.Log2(n) }
	rows := []row{
		{sleepmst.Randomized, 0, logn, func(n float64) float64 { return n * logn(n) },
			"awake/log2(n)", "rounds/(n log2 n)"},
		{sleepmst.Deterministic, 512, logn, func(n float64) float64 { return n * n * logn(n) },
			"awake/log2(n)", "rounds/(n*N log2 n)"},
		{sleepmst.LogStar, 512, func(n float64) float64 { return logn(n) * stats.LogStar(n) },
			func(n float64) float64 { return n * logn(n) * stats.LogStar(n) },
			"awake/(log2 n log* n)", "rounds/(n log2 n log* n)"},
		{sleepmst.Baseline, 512, func(n float64) float64 { return n * logn(n) },
			func(n float64) float64 { return n * logn(n) },
			"awake/(n log2 n)", "rounds/(n log2 n)"},
		{sleepmst.ClassicGHS, 256, func(n float64) float64 { return n * logn(n) },
			func(n float64) float64 { return n * logn(n) },
			"awake/(n log2 n)", "rounds/(n log2 n)"},
	}
	for _, r := range rows {
		ns, awake, rounds := h.sweep(r.algo, r.maxN)
		tb := stats.NewTable("n", "awake", r.atLabel, "rounds", r.rtLabel)
		var envA, envR []float64
		for i, n := range ns {
			ea, er := r.atEnv(float64(n)), r.rtEnv(float64(n))
			envA = append(envA, ea)
			envR = append(envR, er)
			tb.AddRow(n, awake[i], awake[i]/ea, rounds[i], rounds[i]/er)
		}
		cA, r2A := stats.FitProportional(envA, awake)
		cR, r2R := stats.FitProportional(envR, rounds)
		fmt.Printf("--- %s ---\n%s", r.algo, tb.String())
		fmt.Printf("fit: awake ≈ %.2f × envelope (R²=%.3f); rounds ≈ %.3g × envelope (R²=%.3f)\n\n",
			cA, r2A, cR, r2R)
	}
}

func (h *harness) decay() {
	fmt.Println("=== Lemma 1 / Lemma 5: fragment decay per phase ===")
	fmt.Println("paper: expected reduction factor >= 4/3 per phase (randomized);")
	fmt.Println("       strict decrease per phase (deterministic)")
	fmt.Println()
	n := h.ns[len(h.ns)-1]
	for _, a := range []sleepmst.Algorithm{sleepmst.Randomized, sleepmst.Deterministic} {
		if a == sleepmst.Deterministic && n > 512 {
			n = 512
		}
		g := sleepmst.RandomConnected(n, h.deg*n, 424242)
		rep, err := sleepmst.Run(a, g, sleepmst.Options{Seed: 7, RecordPhases: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		counts := rep.FragmentsPerPhase
		tb := stats.NewTable("phase", "fragments", "reduction factor")
		prev := float64(g.N())
		for p, c := range counts {
			factor := prev / float64(c)
			tb.AddRow(p+1, c, factor)
			prev = float64(c)
		}
		fmt.Printf("--- %s (n=%d) ---\n%s\n", a, g.N(), tb.String())
	}
}

func (h *harness) theorem3() {
	fmt.Println("=== Theorem 3: Ω(log n) awake lower bound on rings ===")
	fmt.Println("(a) structural: the two heaviest edges of a random ring are ≥ len/4")
	fmt.Println("    apart with probability ≈ 1/2 (the proof needs constant probability)")
	tb := stats.NewTable("ring length", "trials", "Pr[sep >= len/4]", "mean separation")
	for _, n := range h.ns {
		res := lowerbound.HeaviestEdgeSeparation(4*n+4, 2000, int64(n))
		tb.AddRow(res.N, res.Trials, res.FracSeparated, res.MeanSeparation)
	}
	fmt.Print(tb.String())

	fmt.Println()
	fmt.Println("(b) Lemma 11 knowledge-segment game: Pr[U(I,a)] >= 1/2 for |I| = 13^a")
	rows := lowerbound.KnowledgeSegmentGame(13*13*2, 2, 400, 99)
	tb2 := stats.NewTable("a", "|I| = 13^a", "Pr[U(I,a)]", "trials")
	for _, r := range rows {
		tb2.AddRow(r.A, r.SegmentLen, r.ProbU, r.Trials)
	}
	fmt.Print(tb2.String())

	fmt.Println()
	fmt.Println("(c) our algorithm on rings: awake complexity grows like Θ(log n)")
	tb3 := stats.NewTable("n", "awake (max)", "awake/log2(n)")
	for _, n := range h.ns {
		g := lowerbound.RingInstance(n, int64(n))
		rep, err := sleepmst.Run(sleepmst.Randomized, g, sleepmst.Options{Seed: 5})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		tb3.AddRow(n, rep.AwakeComplexity(), float64(rep.AwakeComplexity())/math.Log2(float64(n)))
	}
	fmt.Print(tb3.String())
	fmt.Println()
}

func (h *harness) figure1() {
	fmt.Println("=== Figure 1 / Observation 1: the lower-bound graph G_rc ===")
	fmt.Println("paper: diameter D = Θ(c / log n)")
	tb := stats.NewTable("r", "c", "n", "|X|", "diameter", "c/log2(n)", "D/(c/log2 n)")
	for _, c := range []int{32, 64, 128, 256} {
		r := 4
		grc, err := sleepmst.NewGRC(r, c, int64(c))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		d := diameter(grc)
		n := float64(grc.G.N())
		env := float64(c) / math.Log2(n)
		tb.AddRow(r, c, grc.G.N(), len(grc.X), d, env, float64(d)/env)
	}
	fmt.Print(tb.String())
	fmt.Println()
}

func diameter(grc *sleepmst.GRC) int {
	return sleepmst.Diameter(grc.G)
}

func (h *harness) theorem4() {
	fmt.Println("=== Theorem 4: awake × rounds >= Ω̃(n) on G_rc ===")
	tb := stats.NewTable("r", "c", "n", "awake", "rounds", "awake×rounds", "product/n", "tree congestion (bits)")
	for _, c := range []int{16, 32, 64} {
		r := 4
		pt, err := lowerbound.TradeoffExperiment(r, c, core.RunRandomized, int64(c))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		tb.AddRow(pt.R, pt.C, pt.N, pt.Awake, pt.Rounds, pt.Product,
			float64(pt.Product)/float64(pt.N), pt.TreeCongestion)
	}
	fmt.Print(tb.String())

	fmt.Println()
	fmt.Println("end-to-end SD → DSD → CSS → MST reduction (decoded vs ground truth):")
	grc, err := sleepmst.NewGRC(5, 32, 3)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
	tb2 := stats.NewTable("trial", "x", "y", "truth disjoint", "decoded", "ok")
	for s := int64(0); s < 6; s++ {
		x := lowerbound.RandomBits(grc.R-1, s*2+1)
		y := lowerbound.RandomBits(grc.R-1, s*2+2)
		ins, err := sleepmst.NewDSDInstance(grc, x, y)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		got, _, err := sleepmst.SolveSDViaMST(ins, sleepmst.Randomized, sleepmst.Options{Seed: s})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		tb2.AddRow(s, bits(x), bits(y), ins.Disjoint(), got, got == ins.Disjoint())
	}
	fmt.Print(tb2.String())
	fmt.Println()
}

func bits(b []bool) string {
	var sb strings.Builder
	for _, v := range b {
		if v {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
