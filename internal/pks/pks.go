// Package pks implements Principal Kernel Selection, the paper's
// inter-kernel reduction (Section 3.1). Every kernel launch is profiled in
// silicon; the twelve microarchitecture-agnostic Table-2 metrics are
// reduced with PCA and clustered with K-Means; K is swept from 1 upward
// and the smallest K whose projected total-cycle error falls under the
// target (5%) wins; one representative kernel per group — the first
// chronologically — is selected and weighted by its group's population.
//
// For workloads whose detailed profiling would exceed the budget (one
// week), the two-level scheme kicks in: the first j kernels are profiled
// in detail and clustered, the remainder are profiled lightly (name +
// launch dims) and mapped onto the detailed groups by an ensemble of SGD,
// Gaussian Naive Bayes, and MLP classifiers.
package pks

import (
	"errors"
	"fmt"
	"math"

	"pka/internal/classify"
	"pka/internal/cluster"
	"pka/internal/gpu"
	"pka/internal/linalg"
	"pka/internal/obs"
	"pka/internal/profiler"
	"pka/internal/silicon"
	"pka/internal/stats"
	"pka/internal/trace"
	"pka/internal/workload"
)

// RepPolicy selects which member of a cluster becomes its representative.
type RepPolicy int

// Representative policies. The paper evaluated all three and chose
// first-chronological: random is inconsistent, center gains nothing over
// first, and first-chronological minimizes tracing cost.
const (
	RepFirstChronological RepPolicy = iota
	RepClusterCenter
	RepRandom
)

// String implements fmt.Stringer.
func (p RepPolicy) String() string {
	switch p {
	case RepFirstChronological:
		return "first"
	case RepClusterCenter:
		return "center"
	case RepRandom:
		return "random"
	default:
		return fmt.Sprintf("RepPolicy(%d)", int(p))
	}
}

// Options configures a selection run. The zero value reproduces the
// paper's settings.
type Options struct {
	// TargetErrorPct is the projected-cycle error threshold that ends the
	// K sweep (paper: 5%). Zero applies 5.
	TargetErrorPct float64
	// MaxK bounds the sweep (paper: ~20). Zero applies 20.
	MaxK int
	// PCAVarianceTarget is the explained-variance fraction kept (0.9).
	PCAVarianceTarget float64
	// Representative picks the per-group representative policy.
	Representative RepPolicy
	// DisablePCA clusters on raw standardized features (ablation).
	DisablePCA bool
	// DetailedBudgetSeconds bounds modeled detailed-profiling time before
	// two-level profiling engages. Zero applies the paper's one week.
	DetailedBudgetSeconds float64
	// MaxDetailed caps the number of detailed-profiled kernels outright
	// (0 = budget only).
	MaxDetailed int
	// ClusterSampleMax subsamples the detailed set for the K sweep when
	// it is enormous; unsampled kernels are still assigned to their
	// nearest center afterwards. Zero applies 20000.
	ClusterSampleMax int
	// Seed drives k-means++ and the random representative policy.
	Seed uint64

	// Audit, when non-nil, receives one "sweep-step" decision record per
	// K tried (K, projected error, target) and a "selected" record for
	// the chosen K — the inspectable trail of the K sweep.
	Audit *obs.Audit
	// Metrics, when non-nil, receives selection counters and chosen-K /
	// selection-error histograms.
	Metrics *obs.PKSMetrics

	// auditSubject labels audit records; Select fills it from the
	// workload name.
	auditSubject string
}

func (o Options) filled() Options {
	if o.TargetErrorPct <= 0 {
		o.TargetErrorPct = 5
	}
	if o.MaxK <= 0 {
		o.MaxK = 20
	}
	if o.PCAVarianceTarget <= 0 || o.PCAVarianceTarget > 1 {
		o.PCAVarianceTarget = 0.9
	}
	if o.DetailedBudgetSeconds <= 0 {
		o.DetailedBudgetSeconds = profiler.DefaultDetailedBudgetSeconds
	}
	if o.ClusterSampleMax <= 0 {
		o.ClusterSampleMax = 20000
	}
	return o
}

// Group is one cluster of similar kernels.
type Group struct {
	// Representative is the detailed profile of the selected kernel.
	Representative profiler.DetailedRecord
	// RepIndex is the representative's chronological kernel ID.
	RepIndex int
	// DetailedCount is the number of detailed-profiled members.
	DetailedCount int
	// MappedCount is the number of lightly-profiled kernels the
	// classifiers mapped into this group (two-level only).
	MappedCount int
	// NameCounts histograms the kernel names of the group's members —
	// the per-group composition view of the paper's Figure 4.
	NameCounts map[string]int
}

// Count returns the group's total population.
func (g *Group) Count() int { return g.DetailedCount + g.MappedCount }

// Selection is the output of Principal Kernel Selection.
type Selection struct {
	Workload string
	Device   string

	K      int
	Groups []Group

	TwoLevel        bool
	DetailedKernels int
	TotalKernels    int

	// SiliconTotalCycles is the ground-truth sum of per-kernel silicon
	// cycles over the whole application (launch overheads excluded).
	SiliconTotalCycles int64
	// ProjectedCycles is Σ (representative cycles × group population).
	ProjectedCycles int64
	// SelectionErrorPct is the silicon-vs-projection cycle error.
	SelectionErrorPct float64
	// SiliconSpeedup is total silicon time over the time to execute only
	// the representative kernels once each — the "Silicon SU" columns.
	SiliconSpeedup float64

	// ProfilingSeconds is the modeled wall time the profiling pass cost.
	ProfilingSeconds float64
	// ClassifierAccuracy is the ensemble's holdout accuracy on the
	// detailed set (two-level runs only; 0 otherwise).
	ClassifierAccuracy float64
	// SweepErrors records the projected error at each K tried (1-based:
	// SweepErrors[0] is K=1), for diagnostics and ablation.
	SweepErrors []float64
}

// Select runs Principal Kernel Selection for the workload on the device.
func Select(dev gpu.Device, w *workload.Workload, opts Options) (*Selection, error) {
	o := opts.filled()
	o.auditSubject = w.FullName()
	sel := &Selection{Workload: w.FullName(), Device: dev.Name, TotalKernels: w.N}

	// Pass 1: detailed profiling until the budget (or cap) is exhausted.
	detailed := make([]profiler.DetailedRecord, 0, minInt(w.N, 4096))
	sharedMem := make([]int, 0, minInt(w.N, 4096))
	next := w.Iterator()
	budget := o.DetailedBudgetSeconds
	for k := next(); k != nil; k = next() {
		rec, cost, err := profiler.Detailed(dev, k)
		if err != nil {
			return nil, fmt.Errorf("pks: detailed profiling: %w", err)
		}
		detailed = append(detailed, rec)
		sharedMem = append(sharedMem, k.SharedMemPerBlock)
		sel.ProfilingSeconds += cost
		budget -= cost
		if budget <= 0 || (o.MaxDetailed > 0 && len(detailed) >= o.MaxDetailed) {
			break
		}
	}
	return finishSelection(sel, detailed, sharedMem, o, func(i int) (profiler.LightRecord, float64, error) {
		k := w.Kernel(i)
		return profiler.Light(dev, &k)
	})
}

// lightSource yields the light profile of kernel launch i. Batch selection
// profiles live from the workload; the streaming path replays records it
// buffered while events arrived. Both feed the identical arithmetic in
// finishSelection, which is what keeps streaming output byte-identical to
// batch.
type lightSource func(i int) (profiler.LightRecord, float64, error)

// finishSelection runs everything downstream of the detailed-profiling
// pass: the PCA + K-Means sweep, two-level classifier mapping over the
// light records, and the final projection accounting, metrics, and audit
// trail. It is shared verbatim by Select and Stream.Finalize.
func finishSelection(sel *Selection, detailed []profiler.DetailedRecord, sharedMem []int, o Options, light lightSource) (*Selection, error) {
	if len(detailed) == 0 {
		return nil, errors.New("pks: workload has no kernels")
	}
	sel.DetailedKernels = len(detailed)
	sel.TwoLevel = sel.DetailedKernels < sel.TotalKernels

	// Cluster the detailed set and sweep K.
	groups, assignment, sweep, err := clusterDetailed(detailed, o)
	if err != nil {
		return nil, err
	}
	sel.Groups = groups
	sel.K = len(groups)
	sel.SweepErrors = sweep

	// Ground truth accumulates over the detailed prefix...
	for _, rec := range detailed {
		sel.SiliconTotalCycles += rec.Cycles
	}
	// ...and pass 2 (two-level only) light-profiles, maps, and accounts
	// for the rest.
	if sel.TwoLevel {
		if err := mapLightKernels(sel, detailed, sharedMem, assignment, o, light); err != nil {
			return nil, err
		}
	}

	var repCycles int64
	for _, g := range sel.Groups {
		sel.ProjectedCycles += g.Representative.Cycles * int64(g.Count())
		repCycles += g.Representative.Cycles
	}
	sel.SelectionErrorPct = stats.AbsPctErr(float64(sel.ProjectedCycles), float64(sel.SiliconTotalCycles))
	if repCycles > 0 {
		sel.SiliconSpeedup = float64(sel.SiliconTotalCycles) / float64(repCycles)
	}
	if m := o.Metrics; m != nil {
		m.Selections.Inc()
		m.ChosenK.Observe(float64(sel.K))
		m.ErrorPct.Observe(sel.SelectionErrorPct)
	}
	if o.Audit != nil {
		twoLevel := 0.0
		if sel.TwoLevel {
			twoLevel = 1
		}
		o.Audit.Record("pks", "selected", o.auditSubject, 0, map[string]float64{
			"k":                   float64(sel.K),
			"target_error_pct":    o.TargetErrorPct,
			"selection_error_pct": sel.SelectionErrorPct,
			"detailed_kernels":    float64(sel.DetailedKernels),
			"total_kernels":       float64(sel.TotalKernels),
			"two_level":           twoLevel,
		})
	}
	return sel, nil
}

// clusterDetailed runs the PCA + K-Means sweep over detailed records. It
// returns the chosen groups, a per-detailed-kernel group assignment, and
// the per-K sweep error trace.
func clusterDetailed(detailed []profiler.DetailedRecord, o Options) ([]Group, []int, []float64, error) {
	sample := SampleIndices(len(detailed), o.ClusterSampleMax)
	feat := linalg.NewMatrix(len(sample), trace.NumFeatures)
	for r, idx := range sample {
		ScaleFeatures(feat.Row(r), detailed[idx].Features)
	}

	// Project into cluster space: PCA by default, raw standardized
	// features for the ablation.
	var pca *linalg.PCA
	var points [][]float64
	if o.DisablePCA {
		std := feat.Standardize()
		points = make([][]float64, std.Rows)
		for i := range points {
			points[i] = std.Row(i)
		}
	} else {
		var err error
		pca, err = linalg.FitPCA(feat, o.PCAVarianceTarget, 2)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("pks: PCA: %w", err)
		}
		proj, err := pca.Transform(feat)
		if err != nil {
			return nil, nil, nil, err
		}
		points = make([][]float64, proj.Rows)
		for i := range points {
			points[i] = proj.Row(i)
		}
	}

	var totalSample int64
	for _, idx := range sample {
		totalSample += detailed[idx].Cycles
	}

	rng := stats.NewRNG(o.Seed ^ 0xBEE5)
	maxK := minInt(o.MaxK, len(points))
	// One Dataset for the whole K-sweep: every fit after the first reuses
	// the flattened points and the Lloyd scratch buffers.
	ds, err := cluster.NewDataset(points)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pks: kmeans dataset: %w", err)
	}
	best, sweep, err := ds.Sweep(maxK,
		func(k int) uint64 { return o.Seed + uint64(k) },
		func(k int, res *cluster.KMeansResult) (float64, bool) {
			errPct := projectionError(points, res, detailed, sample, totalSample, o, rng)
			if m := o.Metrics; m != nil {
				m.SweepSteps.Inc()
			}
			underTarget := errPct <= o.TargetErrorPct
			if o.Audit != nil {
				under := 0.0
				if underTarget {
					under = 1
				}
				o.Audit.Record("pks", "sweep-step", o.auditSubject, 0, map[string]float64{
					"k":                float64(k),
					"error_pct":        errPct,
					"target_error_pct": o.TargetErrorPct,
					"under_target":     under,
					"sampled_kernels":  float64(len(points)),
				})
			}
			return errPct, underTarget
		})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pks: kmeans sweep: %w", err)
	}

	// Assign every detailed kernel (sampled or not) to a cluster.
	clusterOf := make([]int, len(detailed))
	if len(sample) == len(detailed) {
		copy(clusterOf, best.Assignment)
	} else {
		samplePos := make(map[int]int, len(sample))
		for pos, idx := range sample {
			samplePos[idx] = pos
		}
		for i := range detailed {
			if pos, ok := samplePos[i]; ok {
				clusterOf[i] = best.Assignment[pos]
				continue
			}
			row := ScaleFeatures(nil, detailed[i].Features)
			p := row
			if pca != nil {
				var err error
				p, err = pca.TransformRow(row)
				if err != nil {
					return nil, nil, nil, err
				}
			}
			clusterOf[i] = best.NearestCenter(p)
		}
	}

	// Build groups, dropping empty clusters, and remap assignments.
	clusterToGroup := make(map[int]int, best.K)
	var groups []Group
	for c := 0; c < best.K; c++ {
		members := best.Members(c)
		if len(members) == 0 {
			continue
		}
		repPos := pickRepresentative(points, best, c, members, detailed, sample, o, rng)
		clusterToGroup[c] = len(groups)
		groups = append(groups, Group{
			Representative: detailed[sample[repPos]],
			RepIndex:       detailed[sample[repPos]].KernelID,
			NameCounts:     map[string]int{},
		})
	}
	if len(groups) == 0 {
		return nil, nil, nil, errors.New("pks: clustering produced no groups")
	}
	assignment := make([]int, len(detailed))
	for i, c := range clusterOf {
		g, ok := clusterToGroup[c]
		if !ok {
			// A nearest-center assignment can land on a cluster that was
			// empty in the sample; fold it into group 0.
			g = 0
		}
		assignment[i] = g
		groups[g].DetailedCount++
		groups[g].NameCounts[detailed[i].Name]++
	}
	return groups, assignment, sweep, nil
}

// projectionError computes the projected-vs-actual cycle error of one
// clustering over the sampled detailed population.
func projectionError(points [][]float64, res *cluster.KMeansResult, detailed []profiler.DetailedRecord, sample []int, total int64, o Options, rng *stats.RNG) float64 {
	var projected int64
	for c := 0; c < res.K; c++ {
		members := res.Members(c)
		if len(members) == 0 {
			continue
		}
		rep := pickRepresentative(points, res, c, members, detailed, sample, o, rng)
		projected += detailed[sample[rep]].Cycles * int64(len(members))
	}
	return stats.AbsPctErr(float64(projected), float64(total))
}

// pickRepresentative returns the sample position of cluster c's
// representative under the configured policy.
func pickRepresentative(points [][]float64, res *cluster.KMeansResult, c int, members []int, detailed []profiler.DetailedRecord, sample []int, o Options, rng *stats.RNG) int {
	switch o.Representative {
	case RepRandom:
		return members[rng.Intn(len(members))]
	case RepClusterCenter:
		best, bestD := members[0], math.Inf(1)
		for _, m := range members {
			var d float64
			for j, v := range points[m] {
				diff := v - res.Centers[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = m, d
			}
		}
		return best
	default: // RepFirstChronological
		best := members[0]
		for _, m := range members {
			if detailed[sample[m]].KernelID < detailed[sample[best]].KernelID {
				best = m
			}
		}
		return best
	}
}

// mapLightKernels performs the second pass of two-level profiling: train
// the classifier ensemble on the detailed prefix, then pull the remaining
// kernels' light profiles from the source and map each onto a group. It
// also extends the ground-truth cycle total over the full app.
func mapLightKernels(sel *Selection, detailed []profiler.DetailedRecord, sharedMem []int, assignment []int, o Options, light lightSource) error {
	// Classifier training cost grows linearly in rows while huge detailed
	// prefixes are massively redundant (the same layer kernels repeat
	// thousands of times), so cap the training set by strided sampling.
	const classifierTrainMax = 20000
	trainIdx := SampleIndices(len(detailed), classifierTrainMax)
	X := make([][]float64, len(trainIdx))
	labels := make([]int, len(trainIdx))
	for i, idx := range trainIdx {
		X[i] = profiler.FeaturesOfDetailed(detailed[idx], sharedMem[idx])
		labels[i] = assignment[idx]
	}
	assignment = labels
	numClasses := len(sel.Groups)

	// The final ensemble does not depend on the holdout probe (both only
	// read X), so it fits while the probe fits and scores.
	ens := classify.NewEnsemble(o.Seed)
	fitErr := make(chan error, 1)
	go func() { fitErr <- ens.Fit(X, assignment, numClasses) }()

	// Holdout accuracy: train on 80%, test on the strided 20%.
	if len(detailed) >= 10 && numClasses > 1 {
		var trX, teX [][]float64
		var trY, teY []int
		for i := range X {
			if i%5 == 4 {
				teX, teY = append(teX, X[i]), append(teY, assignment[i])
			} else {
				trX, trY = append(trX, X[i]), append(trY, assignment[i])
			}
		}
		probe := classify.NewEnsemble(o.Seed)
		if err := probe.Fit(trX, trY, numClasses); err != nil {
			<-fitErr
			return fmt.Errorf("pks: classifier holdout: %w", err)
		}
		sel.ClassifierAccuracy = classify.Accuracy(probe, teX, teY)
	} else {
		sel.ClassifierAccuracy = 1
	}

	if err := <-fitErr; err != nil {
		return fmt.Errorf("pks: classifier training: %w", err)
	}

	for i := sel.DetailedKernels; i < sel.TotalKernels; i++ {
		rec, cost, err := light(i)
		if err != nil {
			return fmt.Errorf("pks: light profiling kernel %d: %w", i, err)
		}
		sel.ProfilingSeconds += cost
		g := 0
		if numClasses > 1 {
			g = ens.Predict(profiler.FeaturesOfLight(rec))
		}
		sel.Groups[g].MappedCount++
		sel.Groups[g].NameCounts[rec.Name]++
		sel.SiliconTotalCycles += rec.Cycles
	}
	return nil
}

// CrossGenResult reports how a Volta-made selection fares on another
// device's silicon.
type CrossGenResult struct {
	// Projected is Σ representative-cycles-on-device × group population.
	Projected int64
	// Truth is the device's ground-truth total kernel cycles.
	Truth int64
	// RepCycles is the cost of executing each representative once — the
	// denominator of the silicon speedup columns.
	RepCycles int64
}

// ErrorPct returns the projection's cycle error.
func (r CrossGenResult) ErrorPct() float64 {
	return stats.AbsPctErr(float64(r.Projected), float64(r.Truth))
}

// Speedup returns the silicon execution-time reduction.
func (r CrossGenResult) Speedup() float64 {
	if r.RepCycles == 0 {
		return 0
	}
	return float64(r.Truth) / float64(r.RepCycles)
}

// ProjectOnDevice reuses a selection made on one device (the paper always
// selects on Volta) to project the workload's total kernel cycles on
// another device: the representatives are re-executed on the target
// silicon and weighted by their original group populations. This is the
// paper's cross-generation validation (Section 5.2.2).
func ProjectOnDevice(dev gpu.Device, w *workload.Workload, sel *Selection) (CrossGenResult, error) {
	var out CrossGenResult
	for _, g := range sel.Groups {
		k := w.Kernel(g.RepIndex)
		res, err := silicon.ExecuteKernel(dev, &k)
		if err != nil {
			return out, fmt.Errorf("pks: representative %d on %s: %w", g.RepIndex, dev.Name, err)
		}
		out.Projected += res.Cycles * int64(g.Count())
		out.RepCycles += res.Cycles
	}
	next := w.Iterator()
	for k := next(); k != nil; k = next() {
		res, err := silicon.ExecuteKernel(dev, k)
		if err != nil {
			return out, err
		}
		out.Truth += res.Cycles
	}
	return out, nil
}

// SampleIndices returns up to max indices evenly strided across n items.
// Exported for the suite-level dedup pass, which subsamples its pooled
// feature set the same way the per-workload sweep does.
func SampleIndices(n, max int) []int {
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, max)
	stride := float64(n) / float64(max)
	for i := range out {
		out[i] = int(float64(i) * stride)
	}
	return out
}

// ScaleFeature compresses count-type Table-2 features with log1p;
// ratio-type features (index 10, divergence efficiency) pass through.
// Exported so the suite-level dedup pass clusters in exactly the feature
// space PKS clusters in — the cross-workload clusters are only
// comparable to per-app ones because the scaling is shared.
func ScaleFeature(v float64, featureIdx int) float64 {
	if featureIdx == 10 {
		return v
	}
	return math.Log1p(v)
}

// ScaleFeatures scales one full Table-2 feature row with ScaleFeature,
// writing into dst when it already has the right length and allocating
// otherwise. Every consumer that builds a cluster-space row — per-app
// PKS, the streaming pipeline, suite-level dedup — goes through this one
// helper, so the feature spaces stay identical by construction.
func ScaleFeatures(dst, src []float64) []float64 {
	if len(dst) != len(src) {
		dst = make([]float64, len(src))
	}
	for j, v := range src {
		dst[j] = ScaleFeature(v, j)
	}
	return dst
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
