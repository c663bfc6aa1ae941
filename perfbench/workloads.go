package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"pka/internal/artifact"
	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// kind is how a workload runs its studies.
type kind int

const (
	// coldEval runs core.Evaluate with a fresh, empty artifact store and a
	// fresh Exec per study: every kernel task simulates and is written.
	coldEval kind = iota
	// warmEval runs core.Evaluate with a fresh Exec per study over a store
	// that set-up filled: every task is a disk hit.
	warmEval
	// selectOnly runs pks.Select and nothing else.
	selectOnly
)

// workloadDef is one named benchmark workload: a fixed study list and how
// each study runs.
type workloadDef struct {
	name    string
	kind    kind
	studies []string
	// pks overrides the selection options; the zero value is cmd/pka's
	// defaults.
	pks pks.Options
	// golden prefixes the study names in the golden digest table.
	golden string
}

// coldStudies is the cold-study list: few, heavy kernels, so fresh
// simulation is nearly all of a pass. Every task also writes an artifact,
// and on a busy disk one write costs up to ~0.9 ms; many-kernel studies
// would make cold pass time track the disk. MLPerf/3dunet_inf's full
// simulation is infeasible, so only its PKP-truncated representatives run.
var coldStudies = []string{
	"Parboil/stencil",
	"Rodinia/lud_i",
	"MLPerf/3dunet_inf",
}

// warmStudies is the warm-replay list: the feasible cold studies plus two
// many-kernel ones, 1402 launches in all, with cheap selections. Replaying
// them is mostly the task ladder's key derivation, store reads and
// decoding; 3dunet is left out because its 2800-launch selection would
// outlast the ladder and hide it.
var warmStudies = []string{
	"Parboil/stencil",
	"Rodinia/lud_i",
	"Rodinia/scluster",
	"Rodinia/gauss_s256",
}

// twoLevelStudies are the registry's largest selections; both engage
// two-level profiling, so the classifier ensemble and light profiling run.
var twoLevelStudies = []string{
	"MLPerf/bert_offline_inf",
	"MLPerf/gnmt_training",
}

var workloadDefs = []workloadDef{
	{name: "cold-study", kind: coldEval, studies: coldStudies, golden: "eval"},
	{name: "warm-replay", kind: warmEval, studies: warmStudies, golden: "eval"},
	{name: "two-level-select", kind: selectOnly, studies: twoLevelStudies, golden: "select"},
}

// shortDefs run one small study per workload for the benchmark's own
// tests. No small registry workload engages two-level profiling, so the
// short select caps the detailed prefix to make it engage.
var shortDefs = []workloadDef{
	{name: "cold-study", kind: coldEval, studies: []string{"Rodinia/gauss_208"}, golden: "eval"},
	{name: "warm-replay", kind: warmEval, studies: []string{"Rodinia/gauss_208"}, golden: "eval"},
	{name: "two-level-select", kind: selectOnly, studies: []string{"MLPerf/resnet50_256b_inf"},
		pks: pks.Options{MaxDetailed: 2000}, golden: "select-capped"},
}

func findWorkload(name string, short bool) (workloadDef, error) {
	defs := workloadDefs
	if short {
		defs = shortDefs
	}
	var names []string
	for _, d := range defs {
		if d.name == name {
			return d, nil
		}
		names = append(names, d.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// bench is one set-up of a workload: its resolved studies, its scratch
// directory and, for warm-replay, the filled store.
type bench struct {
	def     workloadDef
	dev     gpu.Device
	nproc   int
	studies []*workload.Workload
	dir     string
	// warm is the store set-up filled (warm-replay only).
	warm *artifact.Store
	// lastDirs holds the store directory each study wrote in the latest
	// cold pass; the traced pass checks its keys and bytes against them.
	lastDirs []string
	passes   int
}

// studyResult is one study's outcome in one pass.
type studyResult struct {
	eval   *core.Evaluation // nil for select-only
	sel    *pks.Selection
	digest string
	err    error
}

// passResult is one untraced pass.
type passResult struct {
	seconds                  float64
	allocBytes, allocObjects uint64
	studies                  []studyResult // in study-list order
	// artifact store hits and misses during the pass.
	hits, misses uint64
}

// newBench resolves the studies and prepares the stores. For warm-replay
// it also runs the fill pass, so set-up time includes writing every
// outcome the replays will read.
func newBench(def workloadDef, root string) (*bench, error) {
	b := &bench{def: def, dev: gpu.VoltaV100(), nproc: runtime.NumCPU()}
	for _, name := range def.studies {
		w := workload.Find(name)
		if w == nil {
			return nil, fmt.Errorf("study %s is not in the workload registry", name)
		}
		b.studies = append(b.studies, w)
	}
	dir, err := os.MkdirTemp(root, def.name+"-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	if def.kind != warmEval {
		return b, nil
	}
	b.warm, err = artifact.Open(filepath.Join(dir, "warm"), artifact.Options{})
	if err != nil {
		b.close()
		return nil, err
	}
	for i, w := range b.studies {
		ev, err := core.Evaluate(b.config(b.newExec(b.warm)), w)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("fill %s: %w", def.studies[i], err)
		}
		if d := evalDigest(ev); d != golden[def.golden+":"+def.studies[i]] {
			b.close()
			return nil, fmt.Errorf("fill %s: digest %s does not match the golden table", def.studies[i], d)
		}
	}
	return b, nil
}

// close releases the stores and deletes the scratch directory.
func (b *bench) close() {
	if b.warm != nil {
		b.warm.Close()
	}
	os.RemoveAll(b.dir)
}

// config is the study configuration cmd/pka builds from its default flags,
// at parallelism nproc.
func (b *bench) config(ex *sampling.Exec) core.Config {
	return core.Config{
		Device:      b.dev,
		PKS:         b.pksOptions(),
		PKP:         pkp.Options{Threshold: pkp.DefaultThreshold, Window: pkp.DefaultWindow},
		Parallelism: b.nproc,
		Exec:        ex,
	}
}

func (b *bench) pksOptions() pks.Options {
	o := b.def.pks
	o.TargetErrorPct, o.MaxK = 5, 20
	return o
}

func (b *bench) newExec(st *artifact.Store) *sampling.Exec {
	return sampling.NewExec(parallel.NewScheduler(b.nproc), st)
}

// heapAllocs returns the bytes and objects the process has allocated on
// the heap so far.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// pass runs every study once, in the given order, and times the whole.
func (b *bench) pass(order []int) (passResult, error) {
	pr := passResult{studies: make([]studyResult, len(b.studies))}
	var stores []*artifact.Store
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	var dirs []string
	if b.def.kind == coldEval {
		// Store directories are named before the clock starts; opening
		// them (a mkdir and a scan) is part of each study.
		for i := range b.studies {
			dirs = append(dirs, filepath.Join(b.dir, fmt.Sprintf("pass%d-study%d", b.passes, i)))
		}
	}
	b.passes++
	var warm0 artifact.Stats
	if b.warm != nil {
		warm0 = b.warm.Stats()
	}
	runtime.GC()
	bytes0, objects0 := heapAllocs()
	start := time.Now()
	for _, i := range order {
		w := b.studies[i]
		var r studyResult
		switch b.def.kind {
		case selectOnly:
			r.sel, r.err = pks.Select(b.dev, w, b.pksOptions())
		case coldEval:
			st, err := artifact.Open(dirs[i], artifact.Options{})
			if err != nil {
				return pr, err
			}
			stores = append(stores, st)
			r.eval, r.err = core.Evaluate(b.config(b.newExec(st)), w)
		case warmEval:
			r.eval, r.err = core.Evaluate(b.config(b.newExec(b.warm)), w)
		}
		pr.studies[i] = r
	}
	pr.seconds = time.Since(start).Seconds()
	bytes1, objects1 := heapAllocs()
	pr.allocBytes, pr.allocObjects = bytes1-bytes0, objects1-objects0

	for i := range pr.studies {
		r := &pr.studies[i]
		if r.err != nil {
			continue
		}
		if r.eval != nil {
			r.sel = r.eval.Selection
			r.digest = evalDigest(r.eval)
		} else {
			r.digest = selectionDigest(r.sel)
		}
	}
	for _, st := range stores {
		s := st.Stats()
		pr.hits += s.Hits
		pr.misses += s.Misses
	}
	if b.warm != nil {
		s := b.warm.Stats()
		pr.hits, pr.misses = s.Hits-warm0.Hits, s.Misses-warm0.Misses
	}
	if b.def.kind == coldEval {
		for _, d := range b.lastDirs {
			os.RemoveAll(d)
		}
		b.lastDirs = dirs
	}
	return pr, nil
}

// minPasses keeps a slow first pass from being a run's only sample: a run
// that stopped at one pass exactly when that pass was slow would report it
// alone.
const minPasses = 2

// measure runs passes in seed-fixed study orders until the time is up,
// and at least minPasses times.
func (b *bench) measure(seed int64, seconds float64) ([]passResult, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []passResult
	start := time.Now()
	for len(out) < minPasses || time.Since(start).Seconds() < seconds {
		pr, err := b.pass(rng.Perm(len(b.studies)))
		if err != nil {
			return out, err
		}
		out = append(out, pr)
	}
	return out, nil
}
