// Command benchjson converts `go test -bench` output on stdin into a JSON
// snapshot so the repository can track its performance trajectory in a
// diffable artifact (`make bench` writes BENCH_study.json with it). It
// keeps every reported measurement: ns/op, B/op, allocs/op, and custom
// b.ReportMetric units (Mwi/s, warp-instr/cycle, speedup "x", ...).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -o BENCH_study.json
//
// It can also gate on a committed snapshot: with -baseline and -check it
// compares the named benchmarks against the baseline file and exits
// nonzero when any regresses by more than -tolerance percent, so CI can
// catch performance regressions with one short bench run. Each side's
// ns/op is first divided by the same side's SiliconModel ns/op — a pure-CPU,
// allocation-free yardstick run in the same invocation — so the gate
// measures the code's speed relative to the machine, not the machine. A
// run or baseline without the yardstick is an error:
//
//	{ go test -bench 'SimulatorThroughput|KMeansSweep' -benchtime 5x . ; \
//	  go test -bench SiliconModel . ; } | \
//	  benchjson -baseline BENCH_study.json -check SimulatorThroughput,KMeansSweep
//
// -check-ratio gates on relative speed between two benchmarks of the
// current run (no baseline needed): each spec NUM:DEN:MIN[:MINCPU]
// requires ns/op(NUM) / ns/op(DEN) >= MIN, i.e. DEN is at least MIN times
// faster than NUM. Specs with a MINCPU are skipped on machines with fewer
// CPUs — scaling ratios are meaningless on a single-core runner:
//
//	go test -bench StudyParallel . | benchjson \
//	  -check-ratio 'StudyParallel/p=1:StudyParallel/p=4:1.5:4'
//
// -check-max-ratio is the mirror image: NUM:DEN:MAX[:MINCPU] requires
// ns/op(NUM) / ns/op(DEN) <= MAX, i.e. NUM may be at most MAX times
// slower than DEN. It bounds overhead rather than demanding speedup —
// e.g. the serving tier must not cost more than a small multiple of the
// batch path it wraps:
//
//	go test -bench Serve . | benchjson \
//	  -check-max-ratio 'Serve/served:Serve/direct:3'
//
// -check-metric-ratio gates on a custom b.ReportMetric unit instead of
// ns/op: METRIC:NUM:DEN:MIN[:MINCPU] requires METRIC(NUM) / METRIC(DEN)
// >= MIN. This expresses work-reduction gates — e.g. the suite-dedup
// bench reports total simulated warp-instructions per arm, and CI pins
// the per-app arm at >= 1.3x the dedup arm's work:
//
//	go test -bench StudySuiteDedup -benchtime 1x . | benchjson \
//	  -check-metric-ratio 'warp-instrs:StudySuiteDedup/perapp:StudySuiteDedup/dedup:1.3'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the file layout of BENCH_study.json.
type Snapshot struct {
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu,omitempty"`
	MaxProcs  int    `json:"gomaxprocs"`
	// Note is free-form context about the recording machine that the
	// numbers can't carry themselves (e.g. why parallel sub-benches look
	// inverted on a single-CPU recorder).
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "committed snapshot to compare against")
	check := flag.String("check", "", "comma-separated benchmark names to gate on ns/op relative to the "+yardstick+" yardstick")
	tolerance := flag.Float64("tolerance", 25, "allowed regression of yardstick-relative ns/op vs baseline, percent")
	checkRatio := flag.String("check-ratio", "", "comma-separated NUM:DEN:MIN[:MINCPU] specs requiring ns/op(NUM)/ns/op(DEN) >= MIN in this run")
	checkMaxRatio := flag.String("check-max-ratio", "", "comma-separated NUM:DEN:MAX[:MINCPU] specs requiring ns/op(NUM)/ns/op(DEN) <= MAX in this run")
	checkMetricRatio := flag.String("check-metric-ratio", "", "comma-separated METRIC:NUM:DEN:MIN[:MINCPU] specs requiring METRIC(NUM)/METRIC(DEN) >= MIN in this run")
	note := flag.String("note", "", "free-form note recorded in the snapshot (machine context, caveats)")
	flag.Parse()

	snap := Snapshot{GoVersion: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0), Note: *note}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			snap.CPU = strings.TrimSpace(cpu)
			continue
		}
		if b, ok := parseBenchLine(line); ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}

	// Summarize before writing: when -o and -baseline name the same file
	// (make bench re-recording over the committed snapshot) the deltas must
	// reflect the committed numbers, not the ones just written.
	printSummary(&snap, *baseline)
	if *out != "" || *check == "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if *out == "" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
	}
	if *check != "" {
		if *baseline == "" {
			fatal(fmt.Errorf("-check requires -baseline"))
		}
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var base Snapshot
		if err := json.Unmarshal(raw, &base); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *baseline, err))
		}
		if err := checkRegressions(&snap, &base, *check, *tolerance); err != nil {
			fatal(err)
		}
	}
	if *checkRatio != "" {
		if err := checkRatios(&snap, *checkRatio, runtime.NumCPU()); err != nil {
			fatal(err)
		}
	}
	if *checkMaxRatio != "" {
		if err := checkMaxRatios(&snap, *checkMaxRatio, runtime.NumCPU()); err != nil {
			fatal(err)
		}
	}
	if *checkMetricRatio != "" {
		if err := checkMetricRatios(&snap, *checkMetricRatio, runtime.NumCPU()); err != nil {
			fatal(err)
		}
	}
}

// printSummary writes the human-readable run overview to stderr: one row
// per benchmark with its ns/op and — when a baseline snapshot is readable —
// a signed percent delta against the same benchmark there ("new" when the
// baseline doesn't have it). The JSON on stdout stays the machine record;
// this is the at-a-glance view for the person running `make bench`.
func printSummary(snap *Snapshot, baselinePath string) {
	var base *Snapshot
	if baselinePath != "" {
		if raw, err := os.ReadFile(baselinePath); err == nil {
			var b Snapshot
			if json.Unmarshal(raw, &b) == nil {
				base = &b
			}
		}
	}
	w := 4
	for _, b := range snap.Benchmarks {
		if len(b.Name) > w {
			w = len(b.Name)
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks (%s, gomaxprocs %d)\n",
		len(snap.Benchmarks), snap.GoVersion, snap.MaxProcs)
	if base != nil {
		fmt.Fprintf(os.Stderr, "  %-*s  %14s  %s\n", w, "name", "ns/op", "vs "+baselinePath)
	} else {
		fmt.Fprintf(os.Stderr, "  %-*s  %14s\n", w, "name", "ns/op")
	}
	for _, b := range snap.Benchmarks {
		delta := ""
		if base != nil {
			delta = "new"
			for i := range base.Benchmarks {
				old := &base.Benchmarks[i]
				if old.Name == b.Name && old.NsPerOp > 0 && b.NsPerOp > 0 {
					delta = fmt.Sprintf("%+.2f%%", (b.NsPerOp/old.NsPerOp-1)*100)
					break
				}
			}
		}
		fmt.Fprintf(os.Stderr, "  %-*s  %14.0f  %s\n", w, b.Name, b.NsPerOp, delta)
	}
}

// checkRatios enforces NUM:DEN:MIN[:MINCPU] specs against the current
// snapshot: the DEN benchmark must be at least MIN times faster than NUM.
// A spec with a MINCPU field is skipped (with a notice) when the machine
// has fewer CPUs, because parallel-speedup ratios only mean something with
// cores to spread across. Absent benchmark names are hard errors, same as
// the regression gate.
func checkRatios(snap *Snapshot, specs string, ncpu int) error {
	return checkRatioSpecs(snap, specs, ncpu, false)
}

// checkMaxRatios enforces NUM:DEN:MAX[:MINCPU] specs: the NUM benchmark
// may be at most MAX times slower than DEN. Where checkRatios demands a
// speedup, this bounds an overhead.
func checkMaxRatios(snap *Snapshot, specs string, ncpu int) error {
	return checkRatioSpecs(snap, specs, ncpu, true)
}

func checkRatioSpecs(snap *Snapshot, specs string, ncpu int, upper bool) error {
	find := func(name string) *Benchmark {
		for i := range snap.Benchmarks {
			if snap.Benchmarks[i].Name == name {
				return &snap.Benchmarks[i]
			}
		}
		return nil
	}
	var failures []string
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) != 3 && len(parts) != 4 {
			return fmt.Errorf("ratio spec %q: want NUM:DEN:BOUND[:MINCPU]", spec)
		}
		bound, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || bound <= 0 {
			return fmt.Errorf("ratio spec %q: bad bound %q", spec, parts[2])
		}
		if len(parts) == 4 {
			minCPU, err := strconv.Atoi(parts[3])
			if err != nil || minCPU < 1 {
				return fmt.Errorf("ratio spec %q: bad MINCPU %q", spec, parts[3])
			}
			if ncpu < minCPU {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %s: %d CPUs < required %d\n", spec, ncpu, minCPU)
				continue
			}
		}
		num, den := find(parts[0]), find(parts[1])
		if num == nil {
			return fmt.Errorf("benchmark %q not in current run", parts[0])
		}
		if den == nil {
			return fmt.Errorf("benchmark %q not in current run", parts[1])
		}
		if num.NsPerOp <= 0 || den.NsPerOp <= 0 {
			return fmt.Errorf("ratio spec %q: missing ns/op", spec)
		}
		ratio := num.NsPerOp / den.NsPerOp
		if upper {
			if ratio > bound {
				failures = append(failures, fmt.Sprintf(
					"%s is %.2fx slower than %s, want <= %.2fx (%.0f vs %.0f ns/op)",
					parts[0], ratio, parts[1], bound, num.NsPerOp, den.NsPerOp))
				continue
			}
			fmt.Fprintf(os.Stderr, "benchjson: %s ok: %s is %.2fx of %s (<= %.2fx)\n",
				spec, parts[0], ratio, parts[1], bound)
			continue
		}
		if ratio < bound {
			failures = append(failures, fmt.Sprintf(
				"%s is only %.2fx faster than %s, want >= %.2fx (%.0f vs %.0f ns/op)",
				parts[1], ratio, parts[0], bound, den.NsPerOp, num.NsPerOp))
			continue
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s ok: %s is %.2fx faster than %s (>= %.2fx)\n",
			spec, parts[1], ratio, parts[0], bound)
	}
	if len(failures) > 0 {
		return fmt.Errorf("ratio gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// checkMetricRatios enforces METRIC:NUM:DEN:MIN[:MINCPU] specs against a
// custom b.ReportMetric unit instead of ns/op: the NUM benchmark's METRIC
// value must be at least MIN times the DEN benchmark's. This is how
// work-reduction gates are expressed — e.g. the suite-dedup bench reports
// total simulated warp-instructions, and CI requires the per-app arm to
// simulate >= 1.3x more than the dedup arm:
//
//	warp-instrs:StudySuiteDedup/perapp:StudySuiteDedup/dedup:1.3
//
// Absent benchmarks or missing metrics are hard errors, same as the
// ns/op gates.
func checkMetricRatios(snap *Snapshot, specs string, ncpu int) error {
	find := func(name string) *Benchmark {
		for i := range snap.Benchmarks {
			if snap.Benchmarks[i].Name == name {
				return &snap.Benchmarks[i]
			}
		}
		return nil
	}
	var failures []string
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) != 4 && len(parts) != 5 {
			return fmt.Errorf("metric ratio spec %q: want METRIC:NUM:DEN:MIN[:MINCPU]", spec)
		}
		metric := parts[0]
		bound, err := strconv.ParseFloat(parts[3], 64)
		if err != nil || bound <= 0 {
			return fmt.Errorf("metric ratio spec %q: bad bound %q", spec, parts[3])
		}
		if len(parts) == 5 {
			minCPU, err := strconv.Atoi(parts[4])
			if err != nil || minCPU < 1 {
				return fmt.Errorf("metric ratio spec %q: bad MINCPU %q", spec, parts[4])
			}
			if ncpu < minCPU {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %s: %d CPUs < required %d\n", spec, ncpu, minCPU)
				continue
			}
		}
		num, den := find(parts[1]), find(parts[2])
		if num == nil {
			return fmt.Errorf("benchmark %q not in current run", parts[1])
		}
		if den == nil {
			return fmt.Errorf("benchmark %q not in current run", parts[2])
		}
		nv, nok := num.Metrics[metric]
		dv, dok := den.Metrics[metric]
		if !nok || !dok || nv <= 0 || dv <= 0 {
			return fmt.Errorf("metric ratio spec %q: metric %q missing or non-positive", spec, metric)
		}
		ratio := nv / dv
		if ratio < bound {
			failures = append(failures, fmt.Sprintf(
				"%s(%s) is only %.2fx %s(%s), want >= %.2fx (%.0f vs %.0f)",
				metric, parts[1], ratio, metric, parts[2], bound, nv, dv))
			continue
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s ok: %s(%s) is %.2fx %s(%s) (>= %.2fx)\n",
			spec, metric, parts[1], ratio, metric, parts[2], bound)
	}
	if len(failures) > 0 {
		return fmt.Errorf("metric ratio gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// yardstick is the benchmark -check divides every ns/op by: the
// analytical silicon model is pure CPU and allocates nothing, so it tracks
// the host's speed and not the simulator's code.
const yardstick = "SiliconModel"

// checkRegressions compares the named benchmarks in snap against the
// baseline snapshot by ns/op relative to each side's yardstick, failing
// when any is more than tolerance percent slower. Names absent from either
// side are hard errors — a gate that silently skips a renamed benchmark
// (or its yardstick) is worse than no gate.
func checkRegressions(snap, base *Snapshot, names string, tolerance float64) error {
	find := func(bs []Benchmark, name string) *Benchmark {
		for i := range bs {
			if bs[i].Name == name {
				return &bs[i]
			}
		}
		return nil
	}
	baseYard, curYard := find(base.Benchmarks, yardstick), find(snap.Benchmarks, yardstick)
	switch {
	case baseYard == nil || baseYard.NsPerOp <= 0:
		return fmt.Errorf("yardstick %q has no ns/op in the baseline", yardstick)
	case curYard == nil || curYard.NsPerOp <= 0:
		return fmt.Errorf("yardstick %q has no ns/op in the current run", yardstick)
	}
	var failures []string
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == yardstick {
			return fmt.Errorf("benchmark %q is the yardstick and cannot gate itself", name)
		}
		b := find(base.Benchmarks, name)
		if b == nil {
			return fmt.Errorf("benchmark %q not in baseline", name)
		}
		cur := find(snap.Benchmarks, name)
		if cur == nil {
			return fmt.Errorf("benchmark %q not in current run", name)
		}
		if b.NsPerOp <= 0 || cur.NsPerOp <= 0 {
			return fmt.Errorf("benchmark %q has no ns/op to compare", name)
		}
		baseRel, curRel := b.NsPerOp/baseYard.NsPerOp, cur.NsPerOp/curYard.NsPerOp
		pct := (curRel/baseRel - 1) * 100
		if curRel > baseRel*(1+tolerance/100) {
			failures = append(failures, fmt.Sprintf(
				"%s regressed %.1f%% relative to %s: %.0f ns/op over %.1f ns/op vs baseline %.0f over %.1f (tolerance %.0f%%)",
				name, pct, yardstick, cur.NsPerOp, curYard.NsPerOp, b.NsPerOp, baseYard.NsPerOp, tolerance))
			continue
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s ok relative to %s: %.0f ns/op over %.1f ns/op vs baseline %.0f over %.1f (%+.1f%%)\n",
			name, yardstick, cur.NsPerOp, curYard.NsPerOp, b.NsPerOp, baseYard.NsPerOp, pct)
	}
	if len(failures) > 0 {
		return fmt.Errorf("regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// parseBenchLine parses one `BenchmarkName-8   N   V unit   V unit ...`
// line. Lines that don't look like benchmark results report ok=false.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			vv := v
			b.AllocsPerOp = &vv
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
