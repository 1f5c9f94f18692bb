package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuPackages are the repo packages whose CPU share the traced run
// reports as <pkg>.cpu_share. A sample is charged to the innermost
// sleepmst/internal/<pkg> frame of its stack; samples with no repo
// frame (the benchmark's own code, idle GC workers) are charged to
// none of them, so the shares need not sum to 1.
var cpuPackages = []string{"graph", "problem", "core", "ldt", "sim", "trace", "conform", "service", "transport", "metrics"}

// runtimeCategories are charged by the leaf frame of each sample and
// reported as runtime.<category>_cpu_share; gc also takes any sample
// whose stack runs inside a collector entry point, because the mark
// and sweep leaves are too many to list.
var runtimeCategories = []struct {
	name   string
	leaves []string // function-name prefixes of the leaf frame
}{
	{"map", []string{"runtime.map", "internal/runtime/maps."}},
	{"coro", []string{"runtime.coro", "iter.Pull"}},
	{"gc", []string{"runtime.gcDrain", "runtime.scanobject", "runtime.greyobject",
		"runtime.markBits", "runtime.findObject", "runtime.scanblock", "runtime.wbBuf", "runtime.gcWriteBarrier", "runtime.bulkBarrier"}},
	{"net", []string{"internal/poll.", "net.", "syscall.", "internal/runtime/syscall.", "runtime.netpoll", "runtime/internal/syscall."}},
	{"malloc", []string{"runtime.mallocgc", "runtime.(*mcache)", "runtime.(*mheap)", "runtime.(*mspan)", "runtime.nextFreeFast",
		"runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.memclrNoHeapPointers"}},
}

// gcRoots are stack frames that mark a sample as garbage-collector work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot"}

// cpuProfile profiles fn and returns the per-package and per-category
// CPU shares of its samples. The profile is kept at path for
// `go tool pprof`.
func cpuProfile(path string, fn func() error) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.String())
	}
	return attribute(out)
}

// attribute parses `go tool pprof -traces` output: samples separated
// by dashed lines, each opening with "<value> <leaf frame>" and
// followed by one caller frame per line.
func attribute(traces []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, pkg := range cpuPackages {
		shares[pkg+".cpu_share"] = 0
	}
	for _, c := range runtimeCategories {
		shares["runtime."+c.name+"_cpu_share"] = 0
	}
	var total float64
	charge := func(value float64, frames []string) {
		if len(frames) == 0 {
			return
		}
		total += value
		for _, fr := range frames {
			if pkg, ok := repoPackage(fr); ok {
				if _, listed := shares[pkg+".cpu_share"]; listed {
					shares[pkg+".cpu_share"] += value
				}
				break
			}
		}
		if cat := runtimeCategory(frames); cat != "" {
			shares["runtime."+cat+"_cpu_share"] += value
		}
	}
	var (
		value  float64
		frames []string
		inBody bool
	)
	sc := bufio.NewScanner(bytes.NewReader(traces))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			charge(value, frames)
			frames, inBody = frames[:0], true
			continue
		}
		if !inBody {
			continue // the File/Type/Duration header
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case len(frames) == 0:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value = float64(d)
			frames = append(frames, fields[1])
		default:
			frames = append(frames, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	charge(value, frames)
	for k := range shares {
		if total > 0 { // a profile shorter than one sample has none
			shares[k] /= total
		}
	}
	return shares, nil
}

// repoPackage returns <pkg> for a sleepmst/internal/<pkg> frame.
func repoPackage(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, "sleepmst/internal/")
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg, true
}

// runtimeCategory returns the runtime category of a sample, or "".
func runtimeCategory(frames []string) string {
	for _, fr := range frames {
		for _, r := range gcRoots {
			if strings.HasPrefix(fr, r) {
				return "gc"
			}
		}
	}
	for _, c := range runtimeCategories {
		for _, p := range c.leaves {
			if strings.HasPrefix(frames[0], p) {
				return c.name
			}
		}
	}
	return ""
}
