// Package core assembles the full Principal Kernel Analysis pipeline the
// paper evaluates: silicon ground truth → Principal Kernel Selection →
// sampled cycle-level simulation of the representative kernels (optionally
// cut short by Principal Kernel Projection) → application-level projections
// of cycles, IPC, and DRAM utilization, with error and speedup accounting
// against both silicon and full simulation.
package core

import (
	"errors"
	"fmt"

	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/silicon"
	"pka/internal/sim"
	"pka/internal/stats"
	"pka/internal/trace"
	"pka/internal/workload"
)

// DefaultSimRate is the modeled Accel-Sim simulation speed in warp
// instructions per second, used to convert simulated work into the
// "SimTime [H]" projections of Table 4 and the time axes of Figures 1 and
// 6. Accel-Sim executes a few thousand instructions per second per the
// paper's Figure 1 projections; the tables in EXPERIMENTS.md use this
// constant throughout.
const DefaultSimRate = 3000.0

// Config parameterizes an evaluation.
type Config struct {
	Device gpu.Device
	PKS    pks.Options
	PKP    pkp.Options
	// SimRate converts simulated warp instructions to projected
	// simulation wall time. Zero applies DefaultSimRate.
	SimRate float64
	// FullSimBudget bounds the warp instructions actually simulated for
	// full-simulation baselines. Zero applies the sampling default.
	FullSimBudget int64
	// KernelCapCycles is a per-kernel runaway guard for sampled runs;
	// capped kernels are linearly extrapolated and flagged. Zero applies
	// sim.DefaultMaxCycles.
	KernelCapCycles int64
	// Parallelism bounds how many independent pipeline stages or
	// per-workload artifacts run concurrently (Evaluate's stages here,
	// the experiment generators' per-workload fan-out in
	// internal/experiments). Zero means GOMAXPROCS; 1 forces serial
	// execution. Results are identical at every setting: each unit of
	// work is self-contained and deterministic, parallelism only changes
	// wall-clock time.
	Parallelism int
	// Obs, when non-nil, receives pipeline telemetry: a span per
	// pipeline phase, a span and counter batch per simulated kernel, and
	// PKS/PKP decision-audit records. Telemetry is observe-only — results
	// are byte-identical with or without it.
	Obs *obs.Observer
	// Exec, when non-nil, runs every per-kernel simulation as a task on
	// its kernel-granular scheduler and resolves outcomes through its
	// tier ladder: the in-memory singleflight cache, then the persistent
	// content-addressed artifact store, then (when configured) a remote
	// worker pool, then a fresh local simulation. Results are
	// byte-identical with or without it — and at any tier mix — because
	// task outcomes are pure and merged back in kernel-launch order.
	Exec *sampling.Exec
	// Trace is the distributed-tracing context this evaluation belongs to;
	// with a valid context (and an observer tracer) kernel tasks propagate
	// it through the remote tier so worker spans link back under one trace
	// ID. TraceIDs generates child span IDs (nil falls back to the
	// dispatcher's own generator). Observe-only.
	Trace    obs.TraceContext
	TraceIDs *obs.IDGen
	// Tracer, when non-nil, overrides Obs.Tracer as the destination for
	// kernel-task trace spans. The serving tier sets a per-request tracer
	// here so each study's merged cross-process trace contains only its own
	// spans while metrics keep flowing to the shared observer.
	Tracer *obs.Tracer
	// Flight, when non-nil, records one provenance entry per kernel task —
	// tier, worker, queue-wait and service durations — folded in launch
	// order. Observe-only.
	Flight *sampling.FlightRecorder
}

// TaskTrace returns the trace/provenance fields every kernel task in this
// evaluation shares; phase labels the study phase ("full", "pks", "pka",
// "dedup-pks", "dedup-pka").
func (c Config) TaskTrace(phase string) sampling.TaskObs {
	to := sampling.TaskObs{Flight: c.Flight, Phase: phase}
	to.Tracer = c.Tracer
	if to.Tracer == nil && c.Obs != nil {
		to.Tracer = c.Obs.Tracer
	}
	to.Trace = c.Trace
	to.IDs = c.TraceIDs
	return to
}

// PKSOptions returns cfg.PKS with the observer's audit stream and metric
// family filled in when the caller has not wired its own.
func (c Config) PKSOptions() pks.Options {
	o := c.PKS
	if c.Obs != nil {
		if o.Audit == nil {
			o.Audit = c.Obs.Audit
		}
		if o.Metrics == nil {
			o.Metrics = c.Obs.PKSMetrics()
		}
	}
	return o
}

// PKPOptions returns cfg.PKP wired to the observer for one kernel,
// defaulting the audit subject to the kernel's qualified name.
func (c Config) PKPOptions(subject string) pkp.Options {
	o := c.PKP
	if c.Obs != nil {
		if o.Audit == nil {
			o.Audit = c.Obs.Audit
		}
		if o.Metrics == nil {
			o.Metrics = c.Obs.PKPMetrics()
		}
		if o.AuditSubject == "" {
			o.AuditSubject = subject
		}
	}
	return o
}

// SimHours converts simulated work into projected simulation wall-clock
// hours at the configured rate.
func (c Config) SimHours(warpInstrs int64) float64 {
	rate := c.SimRate
	if rate <= 0 {
		rate = DefaultSimRate
	}
	return float64(warpInstrs) / rate / 3600
}

// SampledSim is the outcome of simulating only the selected kernels.
type SampledSim struct {
	// ProjCycles is the projected application cycle count (kernels
	// weighted by group population, plus launch overheads).
	ProjCycles int64
	// SimWarpInstrs is the work actually simulated.
	SimWarpInstrs int64
	// ErrorPct is the cycle error versus silicon.
	ErrorPct float64
	// IPC is the cycle-weighted projected IPC.
	IPC float64
	// DRAMUtil is the population-weighted projected DRAM utilization.
	DRAMUtil float64
	// SimHours is the projected simulation time at the modeled rate.
	SimHours float64
	// SpeedupVsFull is full-simulation work divided by sampled work. For
	// workloads whose full simulation is infeasible it is computed from
	// the workload's total instruction mass.
	SpeedupVsFull float64
	// Capped reports that some representative hit the runaway guard.
	Capped bool
}

// Evaluation bundles everything Table 4 reports for one workload.
type Evaluation struct {
	Workload  *workload.Workload
	Silicon   silicon.AppResult
	Selection *pks.Selection

	// Full is the full-simulation outcome, nil when infeasible.
	Full *sampling.Result
	// FullErrorPct is "SimError": full simulation versus silicon.
	FullErrorPct float64
	// FullSimHours is the projected full-simulation time; for infeasible
	// workloads it is projected from total instruction mass.
	FullSimHours float64

	PKS SampledSim // selection only
	PKA SampledSim // selection + projection
}

// RunSampled simulates one representative kernel per group (with PKP when
// usePKP is set) and projects application-level metrics from the group
// weights.
func RunSampled(cfg Config, w *workload.Workload, sel *pks.Selection, usePKP bool) (SampledSim, error) {
	dev := cfg.Device
	cap := cfg.KernelCapCycles
	if cap <= 0 {
		cap = sim.DefaultMaxCycles
	}
	mode := "pks"
	if usePKP {
		mode = "pka"
	}
	span := cfg.Obs.StartSpan("sampled:"+mode, w.FullName())
	defer span.End()
	var simObs *obs.SimObs
	if cfg.Obs != nil {
		simObs = cfg.Obs.SimObs("sim:" + mode + ":" + w.FullName())
	}

	// One kernel task per group representative, fanned out on the
	// kernel-granular scheduler (inline and serial when cfg.Exec is nil)
	// and folded back in group order, so the accumulation below performs
	// the same float operations in the same order at any parallelism.
	task := sampling.KernelTask{Mode: sampling.ModePKS, MaxCycles: cap}
	if usePKP {
		task = sampling.KernelTask{Mode: sampling.ModePKA, MaxCycles: cap, PKP: sampling.NewPKPSpec(cfg.PKP)}
	}
	kernels := make([]trace.KernelDesc, len(sel.Groups))
	for i, g := range sel.Groups {
		kernels[i] = w.Kernel(g.RepIndex)
	}
	tobs := func(i int) sampling.TaskObs {
		to := cfg.TaskTrace(mode)
		to.Sim = simObs
		to.Index = i
		if usePKP {
			po := cfg.PKPOptions(w.FullName() + "/" + kernels[i].Name)
			to.Audit, to.AuditSubject, to.PKPMetrics = po.Audit, po.AuditSubject, po.Metrics
		}
		return to
	}
	outs, err := cfg.Exec.RunKernels(dev, task, kernels, tobs)
	out := SampledSim{}
	if err != nil {
		return out, fmt.Errorf("core: rep kernels of %s: %w", w.FullName(), err)
	}
	var kernelCycles int64
	var threadInstrs, dramWeighted float64
	for i, g := range sel.Groups {
		oc := outs[i]
		if oc.Capped {
			out.Capped = true
		}
		weight := int64(g.Count())
		kernelCycles += oc.ProjCycles * weight
		out.SimWarpInstrs += oc.SimWarpInstrs
		threadInstrs += oc.ThreadInstrs * float64(weight)
		dramWeighted += oc.DRAMUtil * float64(oc.ProjCycles*weight)
	}
	out.ProjCycles = kernelCycles + int64(w.N)*silicon.KernelLaunchOverheadCycles
	if kernelCycles > 0 {
		out.IPC = threadInstrs / float64(kernelCycles)
		out.DRAMUtil = dramWeighted / float64(kernelCycles)
	}
	out.SimHours = cfg.SimHours(out.SimWarpInstrs)
	return out, nil
}

// Evaluate runs the complete pipeline for one workload: silicon ground
// truth, PKS, full simulation when feasible, and the sampled PKS/PKA
// simulations with error and speedup accounting. Independent stages run
// concurrently up to cfg.Parallelism; every stage is self-contained, so
// the result is identical at any parallelism level.
func Evaluate(cfg Config, w *workload.Workload) (*Evaluation, error) {
	return EvaluateWithSelection(cfg, w, nil)
}

// EvaluateWithSelection is Evaluate with an optional precomputed selection.
// When sel is non-nil the PKS stage is skipped and sel is used verbatim —
// the streaming pipeline hands in the selection it reconciled while events
// were still arriving; because that selection is byte-identical to what
// pks.Select would have produced, so is the Evaluation. A nil sel is
// exactly Evaluate.
func EvaluateWithSelection(cfg Config, w *workload.Workload, sel *pks.Selection) (*Evaluation, error) {
	if w == nil {
		return nil, errors.New("core: nil workload")
	}
	ev := &Evaluation{Workload: w}

	// Stage 1: silicon walk, selection, and full simulation share no
	// state and fan out together.
	var (
		silErr, selErr, fullErr error
		sil                     silicon.AppResult
		full                    *sampling.Result
	)
	pool := parallel.NewPool(cfg.Parallelism)
	pool.Go(func() error {
		sp := cfg.Obs.StartSpan("silicon", w.FullName())
		defer sp.End()
		sil, silErr = sampling.SiliconTotal(cfg.Device, w)
		return nil
	})
	if sel == nil {
		pool.Go(func() error {
			sp := cfg.Obs.StartSpan("pks-select", w.FullName())
			defer sp.End()
			sel, selErr = pks.Select(cfg.Device, w, cfg.PKSOptions())
			return nil
		})
	}
	pool.Go(func() error {
		sp := cfg.Obs.StartSpan("full-sim", w.FullName())
		defer sp.End()
		var tobs func(i int) sampling.TaskObs
		if cfg.Obs != nil || cfg.Flight != nil || cfg.Trace.Valid() {
			var simObs *obs.SimObs
			if cfg.Obs != nil {
				simObs = cfg.Obs.SimObs("sim:full:" + w.FullName())
			}
			tobs = func(i int) sampling.TaskObs {
				to := cfg.TaskTrace("full")
				to.Sim = simObs
				to.Index = i
				return to
			}
		}
		full, fullErr = cfg.Exec.FullSimObs(cfg.Device, w, cfg.FullSimBudget, tobs)
		return nil
	})
	if err := pool.Wait(); err != nil {
		return nil, err // a stage panicked
	}
	if silErr != nil {
		return nil, silErr
	}
	ev.Silicon = sil
	if selErr != nil {
		return nil, selErr
	}
	ev.Selection = sel
	switch {
	case fullErr == nil:
		ev.Full = full
		ev.FullErrorPct = stats.AbsPctErr(float64(full.ProjCycles), float64(sil.Cycles))
		ev.FullSimHours = cfg.SimHours(full.SimWarpInstrs)
	case errors.Is(fullErr, sampling.ErrInfeasible):
		// Projected time only; no error column (the paper's MLPerf rows).
		ev.FullSimHours = cfg.SimHours(TotalWarpWork(cfg.Device, w))
	default:
		return nil, fullErr
	}

	// Stage 2: the PKS and PKA sampled runs both need the selection but
	// not each other.
	var pksErr, pkaErr error
	pool.Go(func() error { ev.PKS, pksErr = RunSampled(cfg, w, sel, false); return nil })
	pool.Go(func() error { ev.PKA, pkaErr = RunSampled(cfg, w, sel, true); return nil })
	if err := pool.Wait(); err != nil {
		return nil, err
	}
	if pksErr != nil {
		return nil, pksErr
	}
	if pkaErr != nil {
		return nil, pkaErr
	}
	ev.PKS.ErrorPct = stats.AbsPctErr(float64(ev.PKS.ProjCycles), float64(sil.Cycles))
	ev.PKA.ErrorPct = stats.AbsPctErr(float64(ev.PKA.ProjCycles), float64(sil.Cycles))

	fullWork := TotalWarpWork(cfg.Device, w)
	if ev.Full != nil {
		fullWork = ev.Full.SimWarpInstrs
	}
	if ev.PKS.SimWarpInstrs > 0 {
		ev.PKS.SpeedupVsFull = float64(fullWork) / float64(ev.PKS.SimWarpInstrs)
	}
	if ev.PKA.SimWarpInstrs > 0 {
		ev.PKA.SpeedupVsFull = float64(fullWork) / float64(ev.PKA.SimWarpInstrs)
	}
	return ev, nil
}

// TotalWarpWork returns the workload's full dynamic warp-instruction mass
// on the device — the denominator of every speedup-vs-full figure, and
// the before/after axis of the suite-dedup bench.
func TotalWarpWork(dev gpu.Device, w *workload.Workload) int64 {
	return int64(float64(w.ApproxWarpInstructions(1<<62)) * dev.ISAScale)
}
