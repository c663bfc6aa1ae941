package pks

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

// twoLevelDigest is an FNV-64a hash over every Selection field a study
// prints: K, each group's representative and its detailed and mapped
// populations, the ground-truth cycle total, and the classifier accuracy,
// profiling time and selection error at full precision (their IEEE-754
// bits, so a one-ulp drift changes the digest).
func twoLevelDigest(sel *Selection) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "k=%d silicon=%d\n", sel.K, sel.SiliconTotalCycles)
	for i, g := range sel.Groups {
		fmt.Fprintf(h, "group %d rep=%d detailed=%d mapped=%d\n", i, g.RepIndex, g.DetailedCount, g.MappedCount)
	}
	fmt.Fprintf(h, "acc=%016x prof=%016x err=%016x\n",
		math.Float64bits(sel.ClassifierAccuracy),
		math.Float64bits(sel.ProfilingSeconds),
		math.Float64bits(sel.SelectionErrorPct))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTwoLevelSelectionGolden pins two-level selections byte for byte.
// Where K > 1 the light tail is mapped by the classifier ensemble, so the
// digest covers the fits (member order, seeds, FP order) and every
// prediction. gramschmidt collapses to one group (no classifier); fdtd2d
// at the same budget keeps two, so the short suite still drives the
// holdout probe, the final fit and 1,260 predictions. The literals were
// computed with serially fitted members and an uncached vote; concurrent
// fitting and memoized prediction must never move them.
func TestTwoLevelSelectionGolden(t *testing.T) {
	cases := []struct {
		workload string
		opts     Options
		minK     int
		long     bool
		want     string
	}{
		{"Polybench/gramschmidt", Options{DetailedBudgetSeconds: 600}, 1, false, "407e2ff36c910c9e"},
		{"Polybench/fdtd2d", Options{DetailedBudgetSeconds: 600}, 2, false, "8f343b2a4eb3d21b"},
		{"MLPerf/gnmt_training", Options{}, 2, true, "133b0b25fde29620"},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("walks a large kernel stream")
			}
			sel, err := Select(gpu.VoltaV100(), workload.Find(c.workload), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sel.TwoLevel || sel.K < c.minK {
				t.Fatalf("want a two-level selection with K >= %d, got two-level=%v K=%d", c.minK, sel.TwoLevel, sel.K)
			}
			if got := twoLevelDigest(sel); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
