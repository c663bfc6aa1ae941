package classify

import (
	"testing"

	"pka/internal/stats"
)

// gaussianDataset builds a 3-class dataset with well-separated class means.
func gaussianDataset(perClass int, seed uint64) ([][]float64, []int) {
	centers := [][]float64{
		{0, 0, 0, 0},
		{6, 6, 0, -3},
		{-6, 3, 5, 4},
	}
	rng := stats.NewRNG(seed)
	var X [][]float64
	var y []int
	for c, ctr := range centers {
		for i := 0; i < perClass; i++ {
			row := make([]float64, len(ctr))
			for j, v := range ctr {
				row[j] = v + rng.NormFloat64()
			}
			X = append(X, row)
			y = append(y, c)
		}
	}
	return X, y
}

func allModels() []Classifier {
	return []Classifier{NewSGD(1), NewGaussianNB(), NewMLP(1), NewEnsemble(1)}
}

func TestClassifiersSeparateGaussians(t *testing.T) {
	Xtr, ytr := gaussianDataset(60, 11)
	Xte, yte := gaussianDataset(30, 99)
	for _, m := range allModels() {
		if err := m.Fit(Xtr, ytr, 3); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if acc := Accuracy(m, Xte, yte); acc < 0.9 {
			t.Errorf("%s held-out accuracy = %.2f, want >= 0.9", m.Name(), acc)
		}
	}
}

func TestClassifiersValidation(t *testing.T) {
	for _, m := range allModels() {
		if err := m.Fit(nil, nil, 2); err == nil {
			t.Errorf("%s accepted empty data", m.Name())
		}
		if err := m.Fit([][]float64{{1, 2}, {3}}, []int{0, 1}, 2); err == nil {
			t.Errorf("%s accepted ragged rows", m.Name())
		}
		if err := m.Fit([][]float64{{1}, {2}}, []int{0, 5}, 2); err == nil {
			t.Errorf("%s accepted out-of-range label", m.Name())
		}
		if err := m.Fit([][]float64{{1}}, []int{0}, 0); err == nil {
			t.Errorf("%s accepted numClasses=0", m.Name())
		}
	}
}

func TestUnfittedPredictIsSafe(t *testing.T) {
	for _, m := range []Classifier{NewSGD(0), NewGaussianNB(), NewMLP(0)} {
		if got := m.Predict([]float64{1, 2, 3}); got != 0 {
			t.Errorf("%s unfitted Predict = %d, want 0", m.Name(), got)
		}
	}
}

func TestSingleClassDataset(t *testing.T) {
	X := [][]float64{{1, 2}, {2, 3}, {0, 1}}
	y := []int{0, 0, 0}
	for _, m := range allModels() {
		if err := m.Fit(X, y, 1); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got := m.Predict([]float64{99, -42}); got != 0 {
			t.Errorf("%s single-class Predict = %d", m.Name(), got)
		}
	}
}

func TestGNBHandlesUnseenClass(t *testing.T) {
	// numClasses = 3 but class 2 never appears in training data.
	X := [][]float64{{0, 0}, {0, 1}, {10, 10}, {10, 11}}
	y := []int{0, 0, 1, 1}
	g := NewGaussianNB()
	if err := g.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([]float64{0, 0.5}); got != 0 {
		t.Errorf("Predict = %d, want 0", got)
	}
	if got := g.Predict([]float64{10, 10.5}); got != 1 {
		t.Errorf("Predict = %d, want 1", got)
	}
}

func TestGNBZeroVarianceFeature(t *testing.T) {
	// Feature 1 is constant; the variance floor must prevent Inf/NaN.
	X := [][]float64{{0, 7}, {1, 7}, {10, 7}, {11, 7}}
	y := []int{0, 0, 1, 1}
	g := NewGaussianNB()
	if err := g.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([]float64{0.5, 7}); got != 0 {
		t.Errorf("Predict = %d, want 0", got)
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, y := gaussianDataset(40, 3)
	probe, _ := gaussianDataset(10, 77)
	for _, build := range []func() Classifier{
		func() Classifier { return NewSGD(42) },
		func() Classifier { return NewMLP(42) },
	} {
		a, b := build(), build()
		if err := a.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		for _, p := range probe {
			if a.Predict(p) != b.Predict(p) {
				t.Errorf("%s: identical seeds diverged", a.Name())
				break
			}
		}
	}
}

func TestEnsembleMajority(t *testing.T) {
	// Stub members with fixed outputs to verify vote counting.
	e := &Ensemble{Members: []Classifier{fixed(2), fixed(1), fixed(1)}}
	if got := e.Predict(nil); got != 1 {
		t.Errorf("majority vote = %d, want 1", got)
	}
	// Tie: first-listed member wins.
	e = &Ensemble{Members: []Classifier{fixed(5), fixed(3)}}
	if got := e.Predict(nil); got != 5 {
		t.Errorf("tie break = %d, want 5", got)
	}
	empty := &Ensemble{}
	if err := empty.Fit([][]float64{{1}}, []int{0}, 1); err == nil {
		t.Error("empty ensemble Fit did not error")
	}
	if got := empty.Predict([]float64{1}); got != 0 {
		t.Errorf("empty ensemble Predict = %d, want 0", got)
	}
}

type fixed int

func (f fixed) Fit([][]float64, []int, int) error { return nil }
func (f fixed) Predict([]float64) int             { return int(f) }
func (f fixed) Name() string                      { return "fixed" }

func TestAccuracyEmpty(t *testing.T) {
	if got := Accuracy(fixed(0), nil, nil); got != 0 {
		t.Errorf("Accuracy on empty = %v", got)
	}
}

// Grid-dimension-like integer features: the actual shape of the two-level
// mapping problem (lightweight profiles carry grid/block dims and name
// hashes). Verify the classifiers handle that distribution.
func TestClassifiersOnGridDimFeatures(t *testing.T) {
	rng := stats.NewRNG(5)
	var X [][]float64
	var y []int
	// Class 0: big grids, small blocks. Class 1: small grids, big blocks.
	for i := 0; i < 120; i++ {
		if i%2 == 0 {
			X = append(X, []float64{float64(4000 + rng.Intn(2000)), 64, 1, float64(rng.Intn(3))})
			y = append(y, 0)
		} else {
			X = append(X, []float64{float64(8 + rng.Intn(16)), 512, 2, float64(rng.Intn(3))})
			y = append(y, 1)
		}
	}
	for _, m := range allModels() {
		if err := m.Fit(X, y, 2); err != nil {
			t.Fatal(err)
		}
		if acc := Accuracy(m, X, y); acc < 0.95 {
			t.Errorf("%s training accuracy on grid features = %.2f", m.Name(), acc)
		}
	}
}
