package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"pka/internal/artifact"
	"pka/internal/classify"
	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/profiler"
	"pka/internal/sampling"
	"pka/internal/sim"
	"pka/internal/trace"
	"pka/internal/workload"
)

// classifierTrainMax mirrors the cap pks.Select puts on the classifier's
// training rows, so the classify probe fits at the row count Select fits.
const classifierTrainMax = 20000

// attribution accumulates one traced pass: the traced study calls, read
// through the program's observe-only counters (the flight recorder and
// Store.Stats), and probes that re-run each layer's public call on the
// same inputs under the benchmark's own clock. Nothing is timed inside
// the program.
type attribution struct {
	width int     // scheduler width the study ran at (1 for select-only)
	passS float64 // wall seconds of the traced study calls

	simBusyS                        float64
	simKernels, simWarp, simCycles  int64
	l2Weighted, dramWeighted        float64 // weighted by simulated cycles
	pkaRuns, pkaStopped             int
	pkaWarp, pkaExpected            int64
	tasks, sims, diskHits, launches int
	waitS, serviceS                 float64
	taskKeyS, decodeS, encodeS      float64
	getS, putS                      float64
	gets, puts                      int
	hits, misses, corrupt, writes   uint64
	bytes                           int64
	siliconS, pksS                  float64
	k, detailed, light              int
	profDetailedS, profLightS       float64
	fitS, predictS                  float64
	pkaErr, fullErr, speedup        []float64
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// traceStudy runs study i once more with the flight recorder on, then
// attributes it layer by layer. It returns the study's result and any
// same-work violation: a task key the untraced run did not store, a
// re-simulated outcome whose bytes differ from the stored ones, or
// profiler costs that do not sum to the selection's.
func (b *bench) traceStudy(i int, a *attribution, s *sim.Simulator) (studyResult, []string, error) {
	w := b.studies[i]
	var r studyResult
	if b.def.kind == selectOnly {
		start := time.Now()
		r.sel, r.err = pks.Select(b.dev, w, b.pksOptions())
		d := since(start)
		a.passS += d
		a.pksS += d
		if r.err != nil {
			return r, nil, nil
		}
		r.digest = selectionDigest(r.sel)
		probs, err := a.attributeSelection(b.dev, w, r.sel, b.pksOptions().Seed)
		return r, probs, err
	}

	// The store the traced study runs against, and the one the untraced
	// run filled: the same warm store, or for cold-study a fresh store
	// beside the last untraced pass's.
	st, ref := b.warm, b.warm
	if b.def.kind == coldEval {
		var err error
		if st, err = artifact.Open(filepath.Join(b.dir, fmt.Sprintf("traced-study%d", i)), artifact.Options{}); err != nil {
			return r, nil, err
		}
		defer st.Close()
		if ref, err = artifact.Open(b.lastDirs[i], artifact.Options{}); err != nil {
			return r, nil, err
		}
		defer ref.Close()
	}
	fr := sampling.NewFlightRecorder()
	cfg := b.config(b.newExec(st))
	cfg.Flight = fr
	before := st.Stats()
	start := time.Now()
	r.eval, r.err = core.Evaluate(cfg, w)
	a.passS += since(start)
	after := st.Stats()
	if r.err != nil {
		return r, nil, nil
	}
	ev := r.eval
	r.sel, r.digest = ev.Selection, evalDigest(ev)
	a.hits += after.Hits - before.Hits
	a.misses += after.Misses - before.Misses
	a.corrupt += after.Corrupt - before.Corrupt
	a.writes += after.Writes - before.Writes
	a.bytes += after.SizeBytes - before.SizeBytes
	a.launches += w.N
	a.pkaErr = append(a.pkaErr, ev.PKA.ErrorPct)
	a.speedup = append(a.speedup, ev.PKA.SpeedupVsFull)
	if ev.Full != nil {
		a.fullErr = append(a.fullErr, ev.FullErrorPct)
	}

	putStore, err := artifact.Open(filepath.Join(b.dir, fmt.Sprintf("put-probe-study%d", i)), artifact.Options{})
	if err != nil {
		return r, nil, err
	}
	defer putStore.Close()
	var probs []string
	put := map[string]bool{}
	for _, e := range fr.Entries() {
		a.tasks++
		a.waitS += float64(e.WaitNs) / 1e9
		a.serviceS += float64(e.ServiceNs) / 1e9
		where := fmt.Sprintf("%s task %s/%d", w.FullName(), e.Phase, e.Index)
		k, task, err := taskOf(w, ev.Selection, e, cfg)
		if err != nil {
			probs = append(probs, fmt.Sprintf("%s: %v", where, err))
			continue
		}
		t := time.Now()
		key := sampling.TaskKey(b.dev, &k, task)
		a.taskKeyS += since(t)
		if key != e.Key {
			probs = append(probs, fmt.Sprintf("%s: recomputed key differs from the traced run's", where))
			continue
		}
		t = time.Now()
		raw, ok := ref.Get(key)
		a.getS += since(t)
		a.gets++
		if !ok {
			probs = append(probs, fmt.Sprintf("%s: key is not one the untraced run stored", where))
			continue
		}
		t = time.Now()
		oc, err := sampling.DecodeOutcome(raw)
		a.decodeS += since(t)
		if err != nil {
			probs = append(probs, fmt.Sprintf("%s: stored outcome does not decode: %v", where, err))
			continue
		}
		t = time.Now()
		enc := sampling.EncodeOutcome(oc)
		a.encodeS += since(t)
		if !bytes.Equal(enc, raw) {
			probs = append(probs, fmt.Sprintf("%s: stored outcome does not re-encode to its bytes", where))
		}
		switch e.Tier {
		case sampling.TierSim:
			a.sims++
			oc, err := a.resimulate(s, &k, task)
			if err != nil {
				return r, probs, fmt.Errorf("%s: re-simulate: %w", where, err)
			}
			if !bytes.Equal(sampling.EncodeOutcome(oc), raw) {
				probs = append(probs, fmt.Sprintf("%s: re-simulated outcome differs from the stored bytes", where))
			}
		case sampling.TierDisk:
			a.diskHits++
		}
		if !put[key] {
			put[key] = true
			t = time.Now()
			err := putStore.Put(key, raw)
			a.putS += since(t)
			a.puts++
			if err != nil {
				return r, probs, fmt.Errorf("put probe: %w", err)
			}
		}
	}

	t := time.Now()
	sil, err := sampling.SiliconTotal(b.dev, w)
	a.siliconS += since(t)
	if err != nil {
		return r, probs, err
	}
	if sil.Cycles != ev.Silicon.Cycles {
		probs = append(probs, fmt.Sprintf("%s: silicon walk differs from the study's", w.FullName()))
	}
	t = time.Now()
	sel, err := pks.Select(b.dev, w, cfg.PKSOptions())
	a.pksS += since(t)
	if err != nil {
		return r, probs, err
	}
	if selectionDigest(sel) != selectionDigest(ev.Selection) {
		probs = append(probs, fmt.Sprintf("%s: re-run selection differs from the study's", w.FullName()))
	}
	selProbs, err := a.attributeSelection(b.dev, w, sel, cfg.PKS.Seed)
	return r, append(probs, selProbs...), err
}

// taskOf rebuilds the kernel and task spec core.Evaluate submitted for one
// flight-recorder entry.
func taskOf(w *workload.Workload, sel *pks.Selection, e sampling.ProvEntry, cfg core.Config) (trace.KernelDesc, sampling.KernelTask, error) {
	switch e.Phase {
	case "full":
		if e.Index < 0 || e.Index >= w.N {
			break
		}
		return w.Kernel(e.Index), sampling.KernelTask{Mode: sampling.ModeFull}, nil
	case "pks", "pka":
		if e.Index < 0 || e.Index >= len(sel.Groups) {
			break
		}
		k := w.Kernel(sel.Groups[e.Index].RepIndex)
		if e.Phase == "pks" {
			return k, sampling.KernelTask{Mode: sampling.ModePKS, MaxCycles: sim.DefaultMaxCycles}, nil
		}
		return k, sampling.KernelTask{Mode: sampling.ModePKA, MaxCycles: sim.DefaultMaxCycles, PKP: sampling.NewPKPSpec(cfg.PKP)}, nil
	}
	return trace.KernelDesc{}, sampling.KernelTask{}, fmt.Errorf("unknown phase or index")
}

// resimulate runs one kernel task on a cold simulator through
// sim.Simulator.RunKernel, timing only that call, and folds the result
// into a KernelOutcome the way the Exec ladder does.
func (a *attribution) resimulate(s *sim.Simulator, k *trace.KernelDesc, task sampling.KernelTask) (sampling.KernelOutcome, error) {
	defer s.Flush()
	var opts sim.Options
	var ctl *pkp.Projector
	switch task.Mode {
	case sampling.ModePKS:
		opts.MaxCycles = task.MaxCycles
	case sampling.ModePKA:
		ctl = pkp.New(pkp.Options{Threshold: task.PKP.Threshold, Window: task.PKP.Window, DisableWaveConstraint: task.PKP.DisableWaveConstraint})
		opts = sim.Options{Controller: ctl, MaxCycles: task.MaxCycles}
	}
	t := time.Now()
	res, err := s.RunKernel(k, opts)
	a.simBusyS += since(t)
	if err != nil {
		return sampling.KernelOutcome{}, err
	}
	a.simKernels++
	a.simWarp += res.WarpInstrs
	a.simCycles += res.Cycles
	a.l2Weighted += res.L2MissRate * float64(res.Cycles)
	a.dramWeighted += res.DRAMUtil * float64(res.Cycles)
	var pr pkp.Projection
	switch task.Mode {
	case sampling.ModeFull:
		return sampling.KernelOutcome{ProjCycles: res.Cycles, SimWarpInstrs: res.WarpInstrs, ThreadInstrs: res.ThreadInstrs, DRAMUtil: res.DRAMUtil}, nil
	case sampling.ModePKS:
		pr = pkp.Project(res)
	case sampling.ModePKA:
		a.pkaRuns++
		if res.StoppedEarly {
			a.pkaStopped++
		}
		a.pkaWarp += res.WarpInstrs
		a.pkaExpected += res.ExpectedWarpInstrs
		pr = ctl.Projection(res)
	}
	return sampling.KernelOutcome{
		ProjCycles:    pr.Cycles,
		SimWarpInstrs: pr.SimulatedWarpInstrs,
		ThreadInstrs:  pr.ThreadInstrs,
		DRAMUtil:      pr.DRAMUtil,
		Capped:        task.MaxCycles > 0 && res.Cycles >= task.MaxCycles,
		Truncated:     pr.Truncated,
	}, nil
}

// attributeSelection replays what pks.Select profiles and classifies for
// sel, timing profiler.Detailed and profiler.Light over the same launches
// and classify.Ensemble Fit and Predict at the same row and class counts.
// The replayed modelled profiling costs, summed in Select's order, must
// equal sel.ProfilingSeconds exactly.
func (a *attribution) attributeSelection(dev gpu.Device, w *workload.Workload, sel *pks.Selection, seed uint64) ([]string, error) {
	a.k += sel.K
	a.detailed += sel.DetailedKernels
	a.light += sel.TotalKernels - sel.DetailedKernels

	trainIdx := pks.SampleIndices(sel.DetailedKernels, classifierTrainMax)
	X := make([][]float64, 0, len(trainIdx))
	var cost float64
	for i := 0; i < sel.DetailedKernels; i++ {
		k := w.Kernel(i)
		t := time.Now()
		rec, c, err := profiler.Detailed(dev, &k)
		a.profDetailedS += since(t)
		if err != nil {
			return nil, err
		}
		cost += c
		if len(X) < len(trainIdx) && trainIdx[len(X)] == i {
			X = append(X, profiler.FeaturesOfDetailed(rec, k.SharedMemPerBlock))
		}
	}

	var ens *classify.Ensemble
	numClasses := len(sel.Groups)
	if sel.TwoLevel {
		// Select labels rows with its cluster assignment, which it does not
		// export; the nearest group representative gives labels of the same
		// shape, and the members' cost does not depend on the labels.
		reps := make([][]float64, numClasses)
		for g, grp := range sel.Groups {
			rk := w.Kernel(grp.RepIndex)
			reps[g] = profiler.FeaturesOfDetailed(grp.Representative, rk.SharedMemPerBlock)
		}
		y := make([]int, len(X))
		for i, x := range X {
			y[i] = nearest(reps, x)
		}
		if len(X) >= 10 && numClasses > 1 {
			var trX, teX [][]float64
			var trY, teY []int
			for i := range X {
				if i%5 == 4 {
					teX, teY = append(teX, X[i]), append(teY, y[i])
				} else {
					trX, trY = append(trX, X[i]), append(trY, y[i])
				}
			}
			t := time.Now()
			probe := classify.NewEnsemble(seed)
			err := probe.Fit(trX, trY, numClasses)
			a.fitS += since(t)
			if err != nil {
				return nil, err
			}
			t = time.Now()
			classify.Accuracy(probe, teX, teY)
			a.predictS += since(t)
		}
		t := time.Now()
		ens = classify.NewEnsemble(seed)
		err := ens.Fit(X, y, numClasses)
		a.fitS += since(t)
		if err != nil {
			return nil, err
		}
	}
	for i := sel.DetailedKernels; i < sel.TotalKernels; i++ {
		k := w.Kernel(i)
		t := time.Now()
		rec, c, err := profiler.Light(dev, &k)
		a.profLightS += since(t)
		if err != nil {
			return nil, err
		}
		cost += c
		if numClasses > 1 {
			t = time.Now()
			ens.Predict(profiler.FeaturesOfLight(rec))
			a.predictS += since(t)
		}
	}
	if cost != sel.ProfilingSeconds {
		return []string{fmt.Sprintf("%s: replayed profiler costs sum to %v s, the selection says %v s",
			w.FullName(), cost, sel.ProfilingSeconds)}, nil
	}
	return nil, nil
}

func nearest(centers [][]float64, x []float64) int {
	best, bestD := 0, -1.0
	for c, ctr := range centers {
		var d float64
		for j, v := range ctr {
			diff := x[j] - v
			d += diff * diff
		}
		if bestD < 0 || d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// values turns the attribution into the per-layer metrics. untracedPassS
// is the median untraced pass, the base of trace.overhead_frac.
func (a *attribution) values(untracedPassS float64) map[string]float64 {
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	n := float64(a.tasks)
	getUs := ratio(a.getS, float64(a.gets)) * 1e6
	putUs := ratio(a.putS, float64(a.puts)) * 1e6
	getS := getUs * float64(a.hits+a.misses) / 1e6
	putS := putUs * float64(a.writes) / 1e6
	profS := a.profDetailedS + a.profLightS + a.fitS + a.predictS
	// Busy seconds the probes attribute to named layers, spread over the
	// scheduler width; what remains of the traced pass is core.other_s.
	attributed := a.simBusyS + a.siliconS + a.pksS + getS + putS + a.taskKeyS + a.decodeS + a.encodeS
	evalWall := 0.0
	if a.tasks > 0 {
		evalWall = a.passS
	}
	cycles := float64(a.simCycles)
	return map[string]float64{
		"sim.busy_s":               a.simBusyS,
		"sim.kernels":              float64(a.simKernels),
		"sim.warp_instrs":          float64(a.simWarp),
		"sim.cycles":               cycles,
		"sim.mwips":                ratio(float64(a.simWarp), a.simBusyS) / 1e6,
		"sim.ns_per_cycle":         ratio(a.simBusyS*1e9, cycles),
		"mem.l2_miss_rate":         ratio(a.l2Weighted, cycles),
		"mem.dram_util":            ratio(a.dramWeighted, cycles),
		"pkp.stopped_early_frac":   ratio(float64(a.pkaStopped), float64(a.pkaRuns)),
		"pkp.sim_frac":             ratio(float64(a.pkaWarp), float64(a.pkaExpected)),
		"sampling.tasks":           n,
		"sampling.sims_per_launch": ratio(float64(a.sims), float64(a.launches)),
		"sampling.disk_hit_frac":   ratio(float64(a.diskHits), n),
		"sampling.taskkey_us":      ratio(a.taskKeyS, n) * 1e6,
		"sampling.decode_us":       ratio(a.decodeS, n) * 1e6,
		"sampling.encode_us":       ratio(a.encodeS, n) * 1e6,
		"artifact.get_us":          getUs,
		"artifact.get_s":           getS,
		"artifact.hits":            float64(a.hits),
		"artifact.misses":          float64(a.misses),
		"artifact.corrupt":         float64(a.corrupt),
		"artifact.put_us":          putUs,
		"artifact.put_s":           putS,
		"artifact.bytes":           float64(a.bytes),
		"parallel.queue_wait_s":    a.waitS,
		"parallel.util":            ratio(a.serviceS, float64(a.width)*evalWall),
		"silicon.busy_s":           a.siliconS,
		"pks.busy_s":               a.pksS,
		"pks.k":                    float64(a.k),
		"pks.detailed_kernels":     float64(a.detailed),
		"pks.light_kernels":        float64(a.light),
		"pks.other_s":              a.pksS - profS,
		"profiler.detailed_s":      a.profDetailedS,
		"profiler.light_s":         a.profLightS,
		"classify.fit_s":           a.fitS,
		"classify.predict_s":       a.predictS,
		"core.pka_err_pct":         mean(a.pkaErr),
		"core.full_err_pct":        mean(a.fullErr),
		"core.pka_speedup_x":       geomean(a.speedup),
		"core.other_s":             a.passS - attributed/float64(a.width),
		"trace.overhead_frac":      ratio(a.passS, untracedPassS) - 1,
	}
}
