// Command perfbench is the study ledger: it runs PKA studies through the
// entry points cmd/pka uses (core.Evaluate on a scheduler-backed Exec with
// an artifact store, or pks.Select alone), reports host time, allocation
// and accuracy per pass, and with -trace 1 attributes a separate traced
// pass to the repository's layers. Run it from the repository root:
//
//	bash perfbench/run.sh --workload cold-study --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"pka/internal/sim"
)

// A run sets its workload up at least setupReps times and until
// setupSeconds have passed; setup_s is the median. Set-up without a fill
// pass takes milliseconds, so it repeats many times and its median holds
// still; warm-replay's fill pass takes seconds and runs setupReps times.
const (
	setupReps    = 3
	setupSeconds = 1.0
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	workdir  string
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is one run: the printed result, every measured value, and the
// self-check and same-work violations found.
type outcome struct {
	result
	values   map[string]float64
	problems []string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: cold-study, warm-replay or two-level-select")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the order of studies within each pass")
	fs.Float64Var(&o.seconds, "seconds", 15, "measure passes for this long (at least two passes run)")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&o.short, "short", false, "run one small study per workload (for the benchmark's own tests)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for artifact stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1

	out, err := run(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", p)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// run sets the workload up at least setupReps times, measures untraced
// passes for o.seconds, checks every study's output, and with o.trace runs the traced
// pass. The report goes to log.
func run(o options, log io.Writer) (outcome, error) {
	var out outcome
	def, err := findWorkload(o.workload, o.short)
	if err != nil {
		return out, err
	}
	fmt.Fprintf(log, "host      %s\n", fingerprint())
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return out, err
	}
	root, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(root)

	var setups []float64
	var b *bench
	for setupStart := time.Now(); len(setups) < setupReps || since(setupStart) < setupSeconds; {
		if b != nil {
			b.close()
		}
		start := time.Now()
		if b, err = newBench(def, root); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, since(start))
	}
	defer b.close()

	passes, err := b.measure(o.seed, o.seconds)
	if err != nil {
		return out, err
	}
	var secs, allocMB, allocKobj, selErr, pkaErr, fullErr, speedup []float64
	for pi, p := range passes {
		if len(passes) <= 20 {
			fmt.Fprintf(log, "pass %-4d %.4f s, %.2f MB and %.1fk objects allocated\n", pi, p.seconds, float64(p.allocBytes)/1e6, float64(p.allocObjects)/1e3)
		}
		secs = append(secs, p.seconds)
		allocMB = append(allocMB, float64(p.allocBytes)/1e6)
		allocKobj = append(allocKobj, float64(p.allocObjects)/1e3)
		for i, r := range p.studies {
			ok := out.check(def, i, r, log)
			if ok && def.kind == selectOnly && !r.sel.TwoLevel {
				out.problems = append(out.problems, fmt.Sprintf("two-level-select study %s did not engage two-level profiling", def.studies[i]))
			}
			if !ok || pi > 0 {
				continue
			}
			selErr = append(selErr, r.sel.SelectionErrorPct)
			if r.eval != nil {
				pkaErr = append(pkaErr, r.eval.PKA.ErrorPct)
				speedup = append(speedup, r.eval.PKA.SpeedupVsFull)
				if r.eval.Full != nil {
					fullErr = append(fullErr, r.eval.FullErrorPct)
				}
			}
		}
		switch {
		case def.kind == coldEval && p.hits != 0:
			out.problems = append(out.problems, fmt.Sprintf("cold-study pass %d hit the artifact store %d times; its stores must start empty", pi, p.hits))
		case def.kind == warmEval && p.misses != 0:
			out.problems = append(out.problems, fmt.Sprintf("warm-replay pass %d missed the artifact store %d times, so it simulated", pi, p.misses))
		}
	}
	out.values = map[string]float64{
		"setup_s":     median(setups),
		"pass_s":      median(secs),
		"alloc_kobj":  mean(allocKobj),
		"sel_err_pct": mean(selErr),
	}
	q1, q3 := quartiles(secs)
	fmt.Fprintf(log, "workload  %s: %d studies, seed %d, %d untraced passes (closed loop, one client)\n", def.name, len(def.studies), o.seed, len(passes))
	fmt.Fprintf(log, "setup_s   median %.4f s of %d set-ups\n", out.values["setup_s"], len(setups))
	fmt.Fprintf(log, "pass_s    median %.4f s, quartiles %.4f .. %.4f s, n=%d\n", out.values["pass_s"], q1, q3, len(secs))
	fmt.Fprintf(log, "alloc     mean %.2fk objects and %.2f MB per pass\n", out.values["alloc_kobj"], mean(allocMB))
	fmt.Fprintln(log, "accuracy  errors are against internal/silicon's analytical model, which stands in for real hardware:")
	fmt.Fprintf(log, "          sel_err_pct %.4f %%", out.values["sel_err_pct"])
	if def.kind != selectOnly {
		fmt.Fprintf(log, ", pka_err_pct %.4f %%, full_err_pct %.4f %% (%d feasible), pka_speedup_x %.2f x",
			mean(pkaErr), mean(fullErr), len(fullErr), geomean(speedup))
	}
	fmt.Fprintln(log)

	if o.trace {
		if err := out.traced(b, o.seed, median(secs), log); err != nil {
			return out, err
		}
	}
	metrics, err := emit(out.values, o.trace)
	if err != nil {
		return out, err
	}
	out.Metrics = metrics
	out.Correct = out.Failed == 0 && len(out.problems) == 0
	fmt.Fprintf(log, "ops       %d studies attempted, %d failed\n", out.Attempted, out.Failed)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "metric    %-26s %.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	return out, nil
}

// check counts one study attempt and reports whether it succeeded with
// the golden digest.
func (out *outcome) check(def workloadDef, i int, r studyResult, log io.Writer) bool {
	out.Attempted++
	name := def.studies[i]
	switch want := golden[def.golden+":"+name]; {
	case r.err != nil:
		fmt.Fprintf(log, "FAILED    %s: %v\n", name, r.err)
	case r.digest != want:
		fmt.Fprintf(log, "FAILED    %s: digest %s, golden %q\n", name, r.digest, want)
	default:
		return true
	}
	out.Failed++
	return false
}

// traced runs the traced pass in the seed's first order, adds the
// per-layer values and checks that each workload still exercises the
// layer it is named for.
func (out *outcome) traced(b *bench, seed int64, untracedPassS float64, log io.Writer) error {
	ys, err := yardstick()
	if err != nil {
		return err
	}
	a := &attribution{width: b.nproc}
	if b.def.kind == selectOnly {
		a.width = 1
	}
	s := sim.New(b.dev)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(b.studies)) {
		r, probs, err := b.traceStudy(i, a, s)
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		out.check(b.def, i, r, log)
		out.problems = append(out.problems, probs...)
	}
	for name, v := range a.values(untracedPassS) {
		out.values[name] = v
	}
	out.values["host.yardstick_ns"] = ys
	out.values["host.peak_rss_mb"] = peakRSSMB()

	v := out.values
	var selfCheck string
	switch b.def.kind {
	case warmEval:
		if v["sim.kernels"] != 0 || v["artifact.misses"] != 0 {
			selfCheck = fmt.Sprintf("warm-replay simulated %v kernels and missed the store %v times; both must be 0", v["sim.kernels"], v["artifact.misses"])
		}
	case coldEval:
		if v["artifact.hits"] != 0 {
			selfCheck = fmt.Sprintf("cold-study hit the artifact store %v times; it must be 0", v["artifact.hits"])
		}
	case selectOnly:
		if v["pks.light_kernels"] <= 0 {
			selfCheck = "two-level-select mapped no light kernels, so two-level profiling did not engage"
		}
	}
	if selfCheck != "" {
		out.problems = append(out.problems, "self-check: "+selfCheck)
	}
	fmt.Fprintf(log, "traced    pass %.4f s vs untraced median %.4f s\n", a.passS, untracedPassS)
	return nil
}
