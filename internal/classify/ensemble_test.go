package classify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"
)

// fixture2000 is the 2,000-row three-class fixture the ensemble contract
// tests share.
func fixture2000() ([][]float64, []int) {
	X, y := gaussianDataset(667, 21)
	return X[:2000], y[:2000]
}

// The cached vote equals the members' vote on every row, on the first
// (miss) and the repeated (hit) call alike.
func TestEnsembleCachedPredictMatchesVote(t *testing.T) {
	X, y := fixture2000()
	e := NewEnsemble(4)
	if err := e.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i, row := range X {
			if got, want := e.Predict(row), e.vote(row); got != want {
				t.Fatalf("pass %d row %d: cached Predict %d, vote %d", pass, i, got, want)
			}
		}
	}
}

// A refit on different labels must not answer from the old cache.
func TestEnsembleRefitClearsCache(t *testing.T) {
	X, y := gaussianDataset(40, 3)
	e := NewEnsemble(1)
	if err := e.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	before := e.Predict(X[0])
	shifted := make([]int, len(y))
	for i, c := range y {
		shifted[i] = (c + 1) % 3
	}
	if err := e.Fit(X, shifted, 3); err != nil {
		t.Fatal(err)
	}
	if after := e.Predict(X[0]); after != (before+1)%3 {
		t.Errorf("after refitting on shifted labels Predict = %d, want %d (was %d)", after, (before+1)%3, before)
	}
}

// Predict is safe for concurrent use: 8 goroutines over the same rows get
// the serial answers (run under -race to check the cache locking).
func TestEnsemblePredictConcurrent(t *testing.T) {
	X, y := gaussianDataset(40, 3)
	e := NewEnsemble(2)
	if err := e.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(X))
	for i, row := range X {
		want[i] = e.vote(row)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range X {
				r := (i + g*7) % len(X)
				if got := e.Predict(X[r]); got != want[r] {
					t.Errorf("goroutine %d row %d: Predict %d, serial vote %d", g, r, got, want[r])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Fitting the members concurrently leaves each in exactly the state a
// serial fit leaves it in, so every prediction agrees.
func TestEnsembleConcurrentFitMatchesSerial(t *testing.T) {
	X, y := fixture2000()
	serial := NewEnsemble(9)
	for _, m := range serial.Members {
		if err := m.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
	}
	concurrent := NewEnsemble(9)
	if err := concurrent.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	for i := range serial.Members {
		if !reflect.DeepEqual(serial.Members[i], concurrent.Members[i]) {
			t.Errorf("%s: concurrent fit differs from serial fit", serial.Members[i].Name())
		}
	}
	for i, row := range X {
		for j, m := range serial.Members {
			if a, b := m.Predict(row), concurrent.Members[j].Predict(row); a != b {
				t.Fatalf("row %d: %s predicts %d serial, %d concurrent", i, m.Name(), a, b)
			}
		}
		if a, b := serial.Predict(row), concurrent.Predict(row); a != b {
			t.Fatalf("row %d: ensemble predicts %d serial, %d concurrent", i, a, b)
		}
	}
}

func TestEnsemblePredictHitAllocatesNothing(t *testing.T) {
	X, y := gaussianDataset(20, 5)
	e := NewEnsemble(3)
	if err := e.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	e.Predict(X[0])
	if n := testing.AllocsPerRun(100, func() { e.Predict(X[0]) }); n != 0 {
		t.Errorf("cache-hit Predict allocates %v objects, want 0", n)
	}
}

type failing struct{ err error }

func (f failing) Fit([][]float64, []int, int) error { return f.err }
func (f failing) Predict([]float64) int             { return 0 }
func (f failing) Name() string                      { return "failing" }

// Members fit concurrently, but the first-listed member's error wins.
func TestEnsembleFitErrorOrder(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	e := &Ensemble{Members: []Classifier{fixed(0), failing{first}, failing{second}}}
	for i := 0; i < 20; i++ {
		if err := e.Fit([][]float64{{1}}, []int{0}, 1); err != first {
			t.Fatalf("Fit error = %v, want %v", err, first)
		}
	}
}

// paramDigest is an FNV-64a hash over the IEEE-754 bits of every fitted
// parameter of the paper's three members.
func paramDigest(e *Ensemble) string {
	h := fnv.New64a()
	put := func(vs ...[]float64) {
		for _, v := range vs {
			for _, f := range v {
				binary.Write(h, binary.LittleEndian, math.Float64bits(f))
			}
		}
	}
	sgd, gnb, mlp := e.Members[0].(*SGD), e.Members[1].(*GaussianNB), e.Members[2].(*MLP)
	put(sgd.weights...)
	put(gnb.priors)
	put(gnb.means...)
	put(gnb.variances...)
	put(mlp.w1...)
	put(mlp.b1)
	put(mlp.w2...)
	put(mlp.b2)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMemberFitsGolden pins every fitted parameter bit for bit. The
// literal was computed with serially fitted members and the MLP update
// step written as lr * grad * x; concurrent fitting and the hoisted
// (lr*grad) * x must reproduce it exactly.
func TestMemberFitsGolden(t *testing.T) {
	X, y := fixture2000()
	e := NewEnsemble(9)
	if err := e.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := paramDigest(e), "a1baab85e487e7c1"; got != want {
		t.Errorf("parameter digest %s, want %s", got, want)
	}
}
