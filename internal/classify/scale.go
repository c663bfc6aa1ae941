package classify

import "math"

// Scaler standardizes feature vectors with training-set statistics
// (subtract the column mean, divide by the column's population standard
// deviation). The SGD and MLP classifiers share it, so "standardized
// features" means the same thing for every model this package trains
// or applies.
type Scaler struct {
	Mean  []float64 `json:"mean"`
	Scale []float64 `json:"scale"`
}

// FitScaler computes per-column standardization statistics over X.
//
// Constant columns get Scale 1 (and thus map to exactly 0), detected by
// comparing the column's min and max directly. The naive guard — "is the
// computed stddev zero?" — silently skews constant columns: summing n
// copies of a value like 0.1 rounds, the mean lands one ulp off the
// value, and the stddev comes out around 1e-17 instead of 0. Dividing by
// it blows the column up to ±1-magnitude noise (or worse), giving a
// feature that carries no information the same weight as a real one.
func FitScaler(X [][]float64) *Scaler {
	dim := len(X[0])
	s := &Scaler{Mean: make([]float64, dim), Scale: make([]float64, dim)}
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	copy(lo, X[0])
	copy(hi, X[0])
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Scale[j] += d * d
		}
	}
	for j := range s.Scale {
		if lo[j] == hi[j] {
			// Constant column: pin the mean to the exact value so the
			// standardized feature is exactly 0, not FP-cancellation noise.
			s.Mean[j] = lo[j]
			s.Scale[j] = 1
			continue
		}
		s.Scale[j] = math.Sqrt(s.Scale[j] / n)
		if s.Scale[j] == 0 {
			s.Scale[j] = 1
		}
	}
	return s
}

// Apply standardizes one row into a fresh slice.
func (s *Scaler) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	s.ApplyInto(out, x)
	return out
}

// ApplyInto standardizes x into dst (which must have len(x)).
func (s *Scaler) ApplyInto(dst, x []float64) {
	for j, v := range x {
		dst[j] = (v - s.Mean[j]) / s.Scale[j]
	}
}
