package pks

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"pka/internal/trace"
)

// The paper's artifact persists each workload's selection — the number of
// principal groups, the principal kernel of each group and its weight — so
// that tracing and simulation can consume it without re-profiling. This
// file provides the equivalent as a stable JSON document.

// SelectionFile is the on-disk form of a Selection: everything a
// simulator integration needs to replay the sampled workload, without the
// profiler internals.
type SelectionFile struct {
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	Device   string `json:"device"`

	K               int  `json:"k"`
	TwoLevel        bool `json:"two_level"`
	DetailedKernels int  `json:"detailed_kernels"`
	TotalKernels    int  `json:"total_kernels"`

	SelectionErrorPct float64 `json:"selection_error_pct"`
	SiliconSpeedup    float64 `json:"silicon_speedup"`

	Groups []GroupFile `json:"groups"`
}

// GroupFile is one group's persisted form.
type GroupFile struct {
	RepKernelID int     `json:"rep_kernel_id"`
	RepName     string  `json:"rep_name"`
	RepGrid     [3]int  `json:"rep_grid"`
	RepBlock    [3]int  `json:"rep_block"`
	RepCycles   int64   `json:"rep_cycles"`
	Count       int     `json:"count"`
	Weight      float64 `json:"weight"` // count / total kernels
}

// currentVersion of the selection file format.
const currentVersion = 1

// File converts a Selection into its serializable form.
func (s *Selection) File() SelectionFile {
	f := SelectionFile{
		Version:           currentVersion,
		Workload:          s.Workload,
		Device:            s.Device,
		K:                 s.K,
		TwoLevel:          s.TwoLevel,
		DetailedKernels:   s.DetailedKernels,
		TotalKernels:      s.TotalKernels,
		SelectionErrorPct: s.SelectionErrorPct,
		SiliconSpeedup:    s.SiliconSpeedup,
	}
	for _, g := range s.Groups {
		gf := GroupFile{
			RepKernelID: g.RepIndex,
			RepName:     g.Representative.Name,
			RepGrid:     [3]int{g.Representative.Grid.X, g.Representative.Grid.Y, g.Representative.Grid.Z},
			RepBlock:    [3]int{g.Representative.Block.X, g.Representative.Block.Y, g.Representative.Block.Z},
			RepCycles:   g.Representative.Cycles,
			Count:       g.Count(),
		}
		if s.TotalKernels > 0 {
			gf.Weight = float64(g.Count()) / float64(s.TotalKernels)
		}
		f.Groups = append(f.Groups, gf)
	}
	return f
}

// WriteJSON writes the selection as indented JSON.
func (s *Selection) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.File())
}

// SaveJSON writes the selection to a file.
func (s *Selection) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.WriteJSON(f)
}

// ReadJSON parses a selection file and validates its structure.
func ReadJSON(r io.Reader) (*SelectionFile, error) {
	var f SelectionFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("pks: parsing selection file: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// LoadJSON reads a selection file from disk.
func LoadJSON(path string) (*SelectionFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}

// Validate checks the invariants a consumer relies on: every group's
// population is positive and the populations sum exactly to TotalKernels
// (each term is bounded by what is left of the total, so no sum can
// wrap), each weight is its group's share Count/TotalKernels, and the
// detailed prefix lies within the workload.
func (f *SelectionFile) Validate() error {
	if f.Version != currentVersion {
		return fmt.Errorf("pks: unsupported selection file version %d", f.Version)
	}
	if f.K != len(f.Groups) {
		return fmt.Errorf("pks: K=%d but %d groups", f.K, len(f.Groups))
	}
	if len(f.Groups) == 0 {
		return fmt.Errorf("pks: selection file has no groups")
	}
	if f.DetailedKernels < 0 || f.DetailedKernels > f.TotalKernels {
		return fmt.Errorf("pks: %d detailed kernels out of range [0,%d]", f.DetailedKernels, f.TotalKernels)
	}
	total := 0
	for i, g := range f.Groups {
		if g.RepKernelID < 0 || g.RepKernelID >= f.TotalKernels {
			return fmt.Errorf("pks: group %d representative id %d out of range [0,%d)", i, g.RepKernelID, f.TotalKernels)
		}
		if g.Count <= 0 || g.Count > f.TotalKernels-total {
			return fmt.Errorf("pks: group %d population %d out of range [1,%d]", i, g.Count, f.TotalKernels-total)
		}
		total += g.Count
		share := float64(g.Count) / float64(f.TotalKernels)
		if !(math.Abs(g.Weight-share) <= weightTolerance) {
			return fmt.Errorf("pks: group %d weight %v, want %v (count/total)", i, g.Weight, share)
		}
	}
	if total != f.TotalKernels {
		return fmt.Errorf("pks: group populations sum to %d, want %d", total, f.TotalKernels)
	}
	return nil
}

// weightTolerance is how far a group weight may sit from Count/TotalKernels
// (files written by WriteJSON hold the exact quotient).
const weightTolerance = 1e-9

// RepresentativeDims returns the representative launch dims of group i as
// trace types, for reconstructing simulator inputs.
func (f *SelectionFile) RepresentativeDims(i int) (grid, block trace.Dim3) {
	g := f.Groups[i]
	return trace.Dim3{X: g.RepGrid[0], Y: g.RepGrid[1], Z: g.RepGrid[2]},
		trace.Dim3{X: g.RepBlock[0], Y: g.RepBlock[1], Z: g.RepBlock[2]}
}
