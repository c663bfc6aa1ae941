package pks

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

// selectionSeeds is the pinned corpus: documents ReadJSON must reject,
// including two that an unbounded count sum and a sum-only weight check
// used to accept. The valid WriteJSON output is added by validSelectionSeed.
var selectionSeeds = []string{
	// Group counts that wrap a 64-bit sum back to total_kernels.
	`{"version":1,"workload":"x","device":"d","k":3,"two_level":false,"detailed_kernels":2,"total_kernels":2,"groups":[` +
		`{"rep_kernel_id":0,"count":9223372036854775807,"weight":0.5},` +
		`{"rep_kernel_id":1,"count":9223372036854775807,"weight":0.5},` +
		`{"rep_kernel_id":0,"count":4,"weight":0}]}`,
	// Per-group weights outside [0,1] whose sum is still 1.
	`{"version":1,"workload":"x","device":"d","k":2,"two_level":false,"detailed_kernels":2,"total_kernels":2,"groups":[` +
		`{"rep_kernel_id":0,"count":1,"weight":1.5},` +
		`{"rep_kernel_id":1,"count":1,"weight":-0.5}]}`,
	// Detailed prefix outside the workload.
	`{"version":1,"workload":"x","k":1,"detailed_kernels":-1,"total_kernels":1,"groups":[{"rep_kernel_id":0,"count":1,"weight":1}]}`,
	`{"version":1,"workload":"x","k":1,"detailed_kernels":2,"total_kernels":1,"groups":[{"rep_kernel_id":0,"count":1,"weight":1}]}`,
	// Structural junk.
	"", "{", "[]", "null", `{"version":1}`,
}

// validSelectionSeed is WriteJSON's output for a real two-level selection.
func validSelectionSeed(tb testing.TB) []byte {
	tb.Helper()
	sel, err := Select(gpu.VoltaV100(), workload.Find("Polybench/fdtd2d"), Options{DetailedBudgetSeconds: 600})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sel.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSelectionJSON fuzzes the selection-file decoder: any byte input
// must either be rejected with an error or decode into a file whose group
// populations sum exactly to TotalKernels and which re-encodes and
// re-reads to an equal value. It must never panic.
func FuzzReadSelectionJSON(f *testing.F) {
	f.Add(validSelectionSeed(f))
	for _, s := range selectionSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		total := 0
		for _, g := range sf.Groups {
			total += g.Count
		}
		if total != sf.TotalKernels {
			t.Fatalf("accepted file whose populations sum to %d, total_kernels %d", total, sf.TotalKernels)
		}
		enc, err := json.Marshal(sf)
		if err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded file rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(sf, again) {
			t.Fatalf("re-read differs:\n%+v\n%+v", sf, again)
		}
	})
}

// TestSelectionSeedCorpus pins which seeds decode: the WriteJSON output
// round-trips, every other seed is rejected.
func TestSelectionSeedCorpus(t *testing.T) {
	valid := validSelectionSeed(t)
	sf, err := ReadJSON(bytes.NewReader(valid))
	if err != nil {
		t.Fatalf("WriteJSON output rejected: %v", err)
	}
	if !sf.TwoLevel || sf.DetailedKernels >= sf.TotalKernels {
		t.Fatalf("seed is not a two-level selection: %+v", sf)
	}
	for i, s := range selectionSeeds {
		if _, err := ReadJSON(strings.NewReader(s)); err == nil {
			t.Errorf("corrupt seed %d accepted:\n%s", i, s)
		}
	}
}
