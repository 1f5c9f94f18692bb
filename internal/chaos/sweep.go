package chaos

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/sweep"
)

// Fault names one fault process for a sweep; the sweep varies its rate
// while leaving every other process off.
type Fault int

const (
	FaultDrop Fault = iota
	FaultDelay
	FaultDup
	FaultFlip
	FaultCrash
	FaultOversleep
)

func (f Fault) String() string {
	switch f {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDup:
		return "dup"
	case FaultFlip:
		return "flip"
	case FaultCrash:
		return "crash"
	case FaultOversleep:
		return "oversleep"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// ParseFault converts a CLI name into a Fault.
func ParseFault(s string) (Fault, error) {
	for _, f := range []Fault{FaultDrop, FaultDelay, FaultDup, FaultFlip, FaultCrash, FaultOversleep} {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown fault %q (want drop|delay|dup|flip|crash|oversleep)", s)
}

// PolicyOptions builds the single-fault policy for one sweep cell. For
// message and wake faults, rate is the per-event probability; for
// crash, rate is the crashed fraction of nodes.
func (f Fault) PolicyOptions(rate float64, seed int64) Options {
	o := Options{Seed: seed}
	switch f {
	case FaultDrop:
		o.DropRate = rate
	case FaultDelay:
		o.DelayRate = rate
	case FaultDup:
		o.DupRate = rate
	case FaultFlip:
		o.FlipRate = rate
	case FaultCrash:
		o.CrashFrac = rate
	case FaultOversleep:
		o.OversleepRate = rate
	}
	return o
}

// Runner is one algorithm under test.
type Runner struct {
	Name string
	Run  func(*graph.Graph, core.Options) (*core.Outcome, error)
}

// SweepConfig parameterizes RunSweep.
type SweepConfig struct {
	// Graph is the network every run executes on. Required.
	Graph *graph.Graph
	// Runners are the algorithms to sweep. Required.
	Runners []Runner
	// Fault is the fault process to vary.
	Fault Fault
	// Rates are the fault rates to sweep over (0 is a valid rate: the
	// policy is wired in but never fires — the clean-model control).
	Rates []float64
	// Seeds is the number of runs per (runner, rate) cell; run i uses
	// seed BaseSeed+i for both the algorithm and the fault policy.
	// Defaults to 5.
	Seeds    int
	BaseSeed int64
	// Opts is the template for per-run core options (BitCap,
	// AwakeBudget, MaxPhases...); Seed and Interceptor are overwritten
	// per run.
	Opts core.Options
	// Workers is the parallel worker-pool size (see sweep.Config): 0
	// means GOMAXPROCS, 1 is the serial control. Aggregates are
	// byte-identical for every value because each run builds its own
	// seeded policy and results are folded in grid order.
	Workers int
}

// Cell aggregates one (algorithm, fault, rate) sweep cell.
type Cell struct {
	Algorithm string         `json:"algorithm"`
	Fault     string         `json:"fault"`
	Rate      float64        `json:"rate"`
	Runs      int            `json:"runs"`
	Counts    map[string]int `json:"counts"`
	// Diverged counts runs not classified CorrectMST;
	// MeanFirstDivergence averages their first-divergence rounds (the
	// earliest round a fault was injected into the run), 0 if none.
	Diverged            int     `json:"diverged"`
	MeanFirstDivergence float64 `json:"mean_first_divergence_round"`
	// MeanMaxAwake / MeanRounds average the runs that produced
	// metrics, including failed ones.
	MeanMaxAwake float64 `json:"mean_max_awake"`
	MeanRounds   float64 `json:"mean_rounds"`
}

// SweepResult is the machine-readable product of a chaos sweep.
type SweepResult struct {
	N        int    `json:"n"`
	M        int    `json:"m"`
	Fault    string `json:"fault"`
	Seeds    int    `json:"seeds"`
	BaseSeed int64  `json:"base_seed"`
	Cells    []Cell `json:"cells"`
}

// RunSweep runs Seeds runs for every (runner, rate) pair and
// classifies each with the oracle.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("chaos: sweep requires a graph")
	}
	if len(cfg.Runners) == 0 {
		return nil, fmt.Errorf("chaos: sweep requires at least one runner")
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0, 0.01, 0.05}
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 5
	}
	res := &SweepResult{
		N:        cfg.Graph.N(),
		M:        cfg.Graph.M(),
		Fault:    cfg.Fault.String(),
		Seeds:    cfg.Seeds,
		BaseSeed: cfg.BaseSeed,
	}

	// Fan the (runner × rate × seed) grid across the worker pool.
	// Every run is self-contained — its policy, options, and seed are
	// derived from the grid coordinates — and the fold below walks the
	// results in grid order, so the aggregate is identical whether the
	// runs finished in order or not.
	type runRecord struct {
		cls        Classification
		hasMetrics bool
		maxAwake   float64
		rounds     float64
		firstDiv   float64
	}
	grid := sweep.NewGrid(len(cfg.Runners), len(cfg.Rates), cfg.Seeds)
	records, err := sweep.Run(sweep.Config{Workers: cfg.Workers}, grid.Size(), func(idx int) (runRecord, error) {
		c := grid.Coords(idx)
		r, rate, seed := cfg.Runners[c[0]], cfg.Rates[c[1]], cfg.BaseSeed+int64(c[2])
		policy := New(cfg.Fault.PolicyOptions(rate, seed))
		opts := cfg.Opts
		opts.Seed = seed
		opts.Interceptor = policy
		out, err := r.Run(cfg.Graph, opts)
		rec := runRecord{cls: Classify(cfg.Graph, out, err)}
		if out != nil && out.Result != nil {
			rec.hasMetrics = true
			rec.maxAwake = float64(out.Result.MaxAwake())
			rec.rounds = float64(out.Result.Rounds)
		}
		if rec.cls != CorrectMST {
			if out != nil {
				rec.firstDiv = float64(FirstDivergence(policy, out.Result))
			} else {
				rec.firstDiv = float64(policy.FirstFaultRound())
			}
		}
		return rec, nil
	})
	if err != nil {
		return nil, err
	}

	for ri, r := range cfg.Runners {
		for rj, rate := range cfg.Rates {
			cell := Cell{
				Algorithm: r.Name,
				Fault:     cfg.Fault.String(),
				Rate:      rate,
				Counts:    make(map[string]int, NumClassifications),
			}
			var divergenceSum float64
			var metered int
			for i := 0; i < cfg.Seeds; i++ {
				rec := records[(ri*len(cfg.Rates)+rj)*cfg.Seeds+i]
				cell.Runs++
				cell.Counts[rec.cls.String()]++
				if rec.hasMetrics {
					metered++
					cell.MeanMaxAwake += rec.maxAwake
					cell.MeanRounds += rec.rounds
				}
				if rec.cls != CorrectMST {
					cell.Diverged++
					divergenceSum += rec.firstDiv
				}
			}
			if metered > 0 {
				cell.MeanMaxAwake /= float64(metered)
				cell.MeanRounds /= float64(metered)
			}
			if cell.Diverged > 0 {
				cell.MeanFirstDivergence = divergenceSum / float64(cell.Diverged)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Table renders the sweep as an outcome-frequency table: one row per
// (algorithm, rate), one column per oracle classification.
func (r *SweepResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos sweep: fault=%s graph n=%d m=%d, %d seeds per cell\n",
		r.Fault, r.N, r.M, r.Seeds)
	fmt.Fprintf(&b, "%-14s %8s", "algorithm", "rate")
	for _, c := range Classifications() {
		fmt.Fprintf(&b, " %12s", c)
	}
	fmt.Fprintf(&b, " %10s %10s\n", "first-div", "max-awake")
	for _, cell := range r.Cells {
		fmt.Fprintf(&b, "%-14s %8.4f", cell.Algorithm, cell.Rate)
		for _, c := range Classifications() {
			fmt.Fprintf(&b, " %12d", cell.Counts[c.String()])
		}
		fd := "-"
		if cell.Diverged > 0 {
			fd = fmt.Sprintf("%.0f", cell.MeanFirstDivergence)
		}
		fmt.Fprintf(&b, " %10s %10.1f\n", fd, cell.MeanMaxAwake)
	}
	return b.String()
}

// JSON renders the sweep deterministically (cells in run order, map
// keys sorted by encoding/json) for use as a robustness-trajectory
// artifact.
func (r *SweepResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// SortCells orders cells by (algorithm, rate) — handy for stable
// diffing when runners were added out of order.
func (r *SweepResult) SortCells() {
	sort.SliceStable(r.Cells, func(i, j int) bool {
		if r.Cells[i].Algorithm != r.Cells[j].Algorithm {
			return r.Cells[i].Algorithm < r.Cells[j].Algorithm
		}
		return r.Cells[i].Rate < r.Cells[j].Rate
	})
}
