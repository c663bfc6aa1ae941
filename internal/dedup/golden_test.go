package dedup

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

// suiteDigest is an FNV-64a hash over every Suite field a study prints:
// K, each representative's owner and kernel, each app's detailed prefix,
// per-representative populations and cycle totals, and the suite error,
// per-app errors and profiling time at full precision (IEEE-754 bits).
func suiteDigest(s *Suite) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "k=%d pooled=%d total=%d\n", s.K, s.PooledKernels, s.TotalKernels)
	for i, r := range s.Reps {
		fmt.Fprintf(h, "rep %d app=%d kernel=%d cycles=%d\n", i, r.App, r.KernelID, r.Cycles)
	}
	for _, a := range s.Apps {
		fmt.Fprintf(h, "app %s detailed=%d two_level=%v counts=%v silicon=%d projected=%d err=%016x\n",
			a.Workload, a.DetailedKernels, a.TwoLevel, a.GroupCounts,
			a.SiliconTotalCycles, a.ProjectedCycles, math.Float64bits(a.SelectionErrorPct))
	}
	fmt.Fprintf(h, "suite_err=%016x prof=%016x\n",
		math.Float64bits(s.SuiteErrorPct), math.Float64bits(s.ProfilingSeconds))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSuiteDedupTwoLevelGolden pins a suite selection whose app tails
// the shared classifier ensemble maps (detailed cap 12 per app). The
// gauss suite collapses to one representative there and never consults
// the classifier, so the pin uses histo + fdtd2d (K=6, 1,556 mapped
// launches). The literal was computed with serially fitted members and an
// uncached vote; concurrent fitting and memoized prediction must never
// move it.
func TestSuiteDedupTwoLevelGolden(t *testing.T) {
	ws := []*workload.Workload{workload.Find("Parboil/histo"), workload.Find("Polybench/fdtd2d")}
	suite, err := Select(gpu.VoltaV100(), ws, Options{MaxDetailedPerApp: 12})
	if err != nil {
		t.Fatal(err)
	}
	if suite.K < 2 {
		t.Fatalf("K=%d: the classifier only runs with two or more representatives", suite.K)
	}
	if got, want := suiteDigest(suite), "d0a1d4cf4f122c03"; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
