// Package sweep is the parallel experiment engine: it fans an
// experiment grid (algorithm × graph × seed, or any indexed job list)
// across a bounded worker pool and returns the per-job results in grid
// order, so aggregation is deterministic and independent of the order
// in which workers happen to finish.
//
// Every consumer of a grid in this repository — cmd/mstbench's size
// sweeps, cmd/sleepsim's and internal/chaos's fault sweeps, and the
// benchmark-regression harness — runs on top of Run/Map. Jobs must be
// self-contained: each derives its graph and randomness from its own
// grid coordinates (never from shared sequential RNG state), which is
// what makes the parallel path produce byte-identical aggregates to
// the serial one.
//
// The same discipline extends to the observability layer: a job that
// collects run counters must not share one metrics.Registry across
// the pool (the values would still be right — Add/Max commute — but
// per-job attribution would be lost). RunWithMetrics gives every job
// a private registry and folds them in grid order, so the merged
// aggregate is identical for every worker count. Trace sinks
// (trace.Recorder, trace.Orderer) are strictly one-per-run and belong
// inside the job closure.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sleepmst/internal/metrics"
)

// Config parameterizes a sweep.
type Config struct {
	// Workers is the worker-pool size. 0 or negative means
	// GOMAXPROCS; 1 degenerates to the serial path (no goroutines,
	// useful as the determinism control).
	Workers int
}

// workers resolves Config.Workers.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes fn(i) for every i in [0, n) across the worker pool and
// returns the results indexed by i. Completion order never leaks into
// the output: results land in their own slots and errors are reported
// for the lowest failing index, exactly as the serial loop would
// surface them. On error the returned slice still holds every
// completed result (failed or not-run slots are zero values).
func Run[T any](cfg Config, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)
	w := cfg.workers()
	if w > n {
		w = n
	}
	if w == 1 {
		// Serial fast path: run in index order, stop at the first
		// error like a plain loop.
		for i := 0; i < n; i++ {
			r, err := fn(i)
			results[i] = r
			if err != nil {
				return results, fmt.Errorf("sweep: job %d: %w", i, err)
			}
		}
		return results, nil
	}
	jobs := make(chan int)
	done := make(chan struct{})
	for g := 0; g < w; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range jobs {
				r, err := fn(i)
				results[i] = r
				errs[i] = err
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	for g := 0; g < w; g++ {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sweep: job %d: %w", i, err)
		}
	}
	return results, nil
}

// Map is Run over an explicit job slice: fn is applied to every job
// and the results come back in job order.
func Map[J, T any](cfg Config, jobs []J, fn func(job J) (T, error)) ([]T, error) {
	return Run(cfg, len(jobs), func(i int) (T, error) { return fn(jobs[i]) })
}

// RunWithMetrics is Run for jobs that also emit run counters: every
// job receives its own private metrics.Registry (workers never
// contend on shared state), and the per-job registries are folded in
// grid order afterwards. The merged registry is therefore identical
// for every worker count, including on error (completed jobs'
// counters are kept, exactly like completed results).
func RunWithMetrics[T any](cfg Config, n int, fn func(i int, reg *metrics.Registry) (T, error)) ([]T, *metrics.Registry, error) {
	regs := make([]*metrics.Registry, n)
	results, err := Run(cfg, n, func(i int) (T, error) {
		regs[i] = metrics.New()
		return fn(i, regs[i])
	})
	return results, metrics.MergeAll(regs), err
}

// Streaming-workload errors returned by Pool.TrySubmit.
var (
	// ErrPoolSaturated: the bounded job queue is full. The caller
	// rejects the work (admission control) instead of blocking.
	ErrPoolSaturated = errors.New("sweep: pool queue full")
	// ErrPoolDraining: Drain has begun; the pool admits no new jobs.
	ErrPoolDraining = errors.New("sweep: pool draining")
)

// Pool is the streaming sibling of Run: a persistent worker set
// draining a bounded job queue, for workloads that arrive one request
// at a time instead of as a fixed grid. The same isolation discipline
// applies — every job must be self-contained (own seed, own recorder,
// own registry) so results are independent of which worker runs them
// and in what order. Admission is explicit: TrySubmit never blocks,
// returning ErrPoolSaturated when the queue is full, which is what
// lets internal/service turn overload into a typed rejection instead
// of unbounded latency.
type Pool struct {
	jobs    chan func()
	workers sync.WaitGroup

	mu       sync.Mutex
	draining bool
}

// NewPool starts cfg.workers() workers over a bounded queue holding up
// to queue waiting jobs (minimum 1; jobs a worker has already picked
// up do not count against the queue). Callers own the lifecycle: every
// NewPool must be paired with a Drain.
func NewPool(cfg Config, queue int) *Pool {
	if queue < 1 {
		queue = 1
	}
	p := &Pool{jobs: make(chan func(), queue)}
	for g := 0; g < cfg.workers(); g++ {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// TrySubmit enqueues job without blocking. It returns ErrPoolSaturated
// when the queue is full and ErrPoolDraining after Drain began; in
// both cases the job will never run.
func (p *Pool) TrySubmit(job func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return ErrPoolDraining
	}
	select {
	case p.jobs <- job:
		return nil
	default:
		return ErrPoolSaturated
	}
}

// Drain stops admission, lets the workers finish every job already
// admitted (running or queued), and returns once the pool is idle.
// Safe to call more than once; later calls just wait.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.workers.Wait()
}

// Grid indexes the cartesian product of named dimensions, flattening a
// multi-dimensional experiment grid into the [0, Size()) job indices
// Run wants. The last dimension varies fastest, matching the nested
// loops it replaces.
type Grid struct {
	dims []int
}

// NewGrid builds a grid from dimension sizes. Panics on a
// non-positive dimension (an empty grid is a caller bug, not a
// runtime condition).
func NewGrid(dims ...int) Grid {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("sweep: non-positive grid dimension in %v", dims))
		}
	}
	return Grid{dims: append([]int(nil), dims...)}
}

// Size returns the number of cells in the grid.
func (g Grid) Size() int {
	s := 1
	for _, d := range g.dims {
		s *= d
	}
	return s
}

// Coords maps a flat job index back to its per-dimension coordinates.
func (g Grid) Coords(idx int) []int {
	if idx < 0 || idx >= g.Size() {
		panic(fmt.Sprintf("sweep: index %d outside grid of size %d", idx, g.Size()))
	}
	out := make([]int, len(g.dims))
	for i := len(g.dims) - 1; i >= 0; i-- {
		out[i] = idx % g.dims[i]
		idx /= g.dims[i]
	}
	return out
}
