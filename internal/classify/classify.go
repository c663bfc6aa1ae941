// Package classify implements the supervised models PKA's two-level
// profiling uses to map lightly-profiled kernels onto the groups discovered
// by detailed profiling: multiclass logistic regression trained with
// stochastic gradient descent, Gaussian Naive Bayes, and a one-hidden-layer
// multilayer perceptron, plus a majority-vote ensemble over all three
// (mirroring the paper, which runs all three models).
package classify

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"pka/internal/stats"
)

// Classifier is a multiclass model over dense feature vectors.
type Classifier interface {
	// Fit trains on rows X with labels y in [0, numClasses).
	Fit(X [][]float64, y []int, numClasses int) error
	// Predict returns the most likely class for x.
	Predict(x []float64) int
	// Name identifies the model in reports.
	Name() string
}

var (
	errNoData   = errors.New("classify: no training data")
	errBadLabel = errors.New("classify: label out of range")
	errRagged   = errors.New("classify: ragged feature dimensions")
	errNotFit   = errors.New("classify: model not fitted")
)

func validate(X [][]float64, y []int, numClasses int) (dim int, err error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, errNoData
	}
	if numClasses < 1 {
		return 0, errors.New("classify: numClasses must be >= 1")
	}
	dim = len(X[0])
	for _, row := range X {
		if len(row) != dim {
			return 0, errRagged
		}
	}
	for _, label := range y {
		if label < 0 || label >= numClasses {
			return 0, errBadLabel
		}
	}
	return dim, nil
}

// argmax returns the index of the largest value.
func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Ensemble predicts with a majority vote over its members; ties break
// toward the member listed first (the paper's pipeline treats the three
// models as interchangeable, so tie policy only needs to be deterministic).
//
// Fit trains the members concurrently, one goroutine each. That is safe
// because every member owns its RNG, scaler and scaled copy of the rows
// and only reads the shared X and y, so each member runs exactly the FP
// operations, in exactly the order, it would run alone; Members must
// therefore be distinct values. Errors come back in member order.
//
// Predict memoizes the vote per distinct feature vector, keyed by the
// exact bits of x: a fitted ensemble's vote is a pure function of x, so a
// cached answer equals the uncached one by construction. Two-level tails
// repeat a handful of launch shapes hundreds of thousands of times, so
// nearly every call is a hit, and a hit allocates nothing. Fit clears the
// cache. Predict is safe for concurrent use; Fit is not safe to run
// alongside Predict or another Fit.
type Ensemble struct {
	Members []Classifier

	mu    sync.Mutex
	key   []byte         // reused buffer holding the bits of the last x
	votes map[string]int // cached vote by the bits of x
}

// maxCachedVotes bounds the vote cache so that a stream of all-distinct
// feature vectors costs memory no larger than this many entries; past
// the bound Predict still answers exactly, it just stops remembering.
const maxCachedVotes = 1 << 16

// NewEnsemble builds the paper's three-model ensemble with a shared seed.
func NewEnsemble(seed uint64) *Ensemble {
	return &Ensemble{Members: []Classifier{
		NewSGD(seed),
		NewGaussianNB(),
		NewMLP(seed + 1),
	}}
}

// Name implements Classifier.
func (e *Ensemble) Name() string { return "ensemble(sgd,gnb,mlp)" }

// Fit trains every member on the same data, concurrently, and clears the
// prediction cache. If several members fail, the first-listed one's error
// is returned.
func (e *Ensemble) Fit(X [][]float64, y []int, numClasses int) error {
	if len(e.Members) == 0 {
		return errors.New("classify: ensemble has no members")
	}
	e.mu.Lock()
	e.votes = nil
	e.mu.Unlock()
	errs := make([]error, len(e.Members))
	var wg sync.WaitGroup
	for i, m := range e.Members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.Fit(X, y, numClasses)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Predict returns the majority vote of the members (0 when there are
// none, like an unfitted member).
func (e *Ensemble) Predict(x []float64) int {
	if len(e.Members) == 0 {
		return 0
	}
	e.mu.Lock()
	e.key = e.key[:0]
	for _, v := range x {
		e.key = binary.LittleEndian.AppendUint64(e.key, math.Float64bits(v))
	}
	if p, ok := e.votes[string(e.key)]; ok {
		e.mu.Unlock()
		return p
	}
	key := string(e.key)
	e.mu.Unlock()

	// Poll the members unlocked: they are caller-supplied code, and
	// concurrent misses need not queue behind one another.
	p := e.vote(x)
	e.mu.Lock()
	if e.votes == nil {
		e.votes = make(map[string]int)
	}
	if len(e.votes) < maxCachedVotes {
		e.votes[key] = p
	}
	e.mu.Unlock()
	return p
}

// vote polls every member; Predict caches its result.
func (e *Ensemble) vote(x []float64) int {
	votes := map[int]int{}
	order := make([]int, 0, len(e.Members))
	for _, m := range e.Members {
		p := m.Predict(x)
		if votes[p] == 0 {
			order = append(order, p)
		}
		votes[p]++
	}
	best, bestV := order[0], votes[order[0]]
	for _, p := range order[1:] {
		if votes[p] > bestV {
			best, bestV = p, votes[p]
		}
	}
	return best
}

// Accuracy returns the fraction of rows the model classifies correctly.
func Accuracy(m Classifier, X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, row := range X {
		if m.Predict(row) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

// shuffledIndices returns a deterministic permutation for epoch shuffling.
func shuffledIndices(n int, rng *stats.RNG) []int { return rng.Perm(n) }
