package classify

import (
	"math"

	"pka/internal/stats"
)

// MLP is a one-hidden-layer perceptron with ReLU activations and a softmax
// output, trained by plain backpropagation with SGD.
type MLP struct {
	Hidden       int
	Epochs       int
	LearningRate float64

	seed       uint64
	numClasses int
	scaler     *Scaler
	w1         [][]float64 // hidden × dim
	b1         []float64
	w2         [][]float64 // classes × hidden
	b2         []float64
}

// NewMLP returns an MLP with defaults sized for profiler feature vectors.
func NewMLP(seed uint64) *MLP {
	return &MLP{Hidden: 32, Epochs: 80, LearningRate: 0.05, seed: seed}
}

// Name implements Classifier.
func (m *MLP) Name() string { return "mlp" }

// Fit implements Classifier.
func (m *MLP) Fit(X [][]float64, y []int, numClasses int) error {
	dim, err := validate(X, y, numClasses)
	if err != nil {
		return err
	}
	m.numClasses = numClasses
	m.scaler = FitScaler(X)
	scaled := make([][]float64, len(X))
	for i, row := range X {
		scaled[i] = m.scaler.Apply(row)
	}

	rng := stats.NewRNG(m.seed ^ 0xAB1E)
	initLayer := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		scale := math.Sqrt(2 / float64(cols))
		for r := range w {
			w[r] = make([]float64, cols)
			for c := range w[r] {
				w[r][c] = rng.NormFloat64() * scale
			}
		}
		return w
	}
	m.w1 = initLayer(m.Hidden, dim)
	m.b1 = make([]float64, m.Hidden)
	m.w2 = initLayer(numClasses, m.Hidden)
	m.b2 = make([]float64, numClasses)

	hidden := make([]float64, m.Hidden)
	probs := make([]float64, numClasses)
	dHidden := make([]float64, m.Hidden)

	for epoch := 0; epoch < m.Epochs; epoch++ {
		lr := m.LearningRate / (1 + 0.02*float64(epoch))
		for _, i := range shuffledIndices(len(scaled), rng) {
			x := scaled[i]
			m.forward(x, hidden, probs)

			// Output layer gradient (softmax + cross entropy).
			for h := range dHidden {
				dHidden[h] = 0
			}
			// lr*grad is hoisted out of the inner loops: Go evaluates
			// lr * grad * v as (lr*grad)*v, so the hoist is bit-exact.
			for c := 0; c < numClasses; c++ {
				grad := probs[c]
				if c == y[i] {
					grad -= 1
				}
				step := lr * grad
				w := m.w2[c][:len(hidden)]
				for h, a := range hidden {
					dHidden[h] += grad * w[h]
					w[h] -= step * a
				}
				m.b2[c] -= step
			}
			// Hidden layer gradient through ReLU.
			for h, a := range hidden {
				if a <= 0 {
					continue
				}
				step := lr * dHidden[h]
				w := m.w1[h][:len(x)]
				for j, v := range x {
					w[j] -= step * v
				}
				m.b1[h] -= step
			}
		}
	}
	return nil
}

// forward computes hidden activations and class probabilities in place.
func (m *MLP) forward(x, hidden, probs []float64) {
	hidden = hidden[:m.Hidden]
	for h := range hidden {
		sum := m.b1[h]
		w := m.w1[h][:len(x)]
		for j, v := range x {
			sum += w[j] * v
		}
		if sum < 0 {
			sum = 0
		}
		hidden[h] = sum
	}
	maxLogit := math.Inf(-1)
	for c := 0; c < m.numClasses; c++ {
		sum := m.b2[c]
		w := m.w2[c][:len(hidden)]
		for h, a := range hidden {
			sum += w[h] * a
		}
		probs[c] = sum
		if sum > maxLogit {
			maxLogit = sum
		}
	}
	var total float64
	for c := 0; c < m.numClasses; c++ {
		probs[c] = math.Exp(probs[c] - maxLogit)
		total += probs[c]
	}
	for c := 0; c < m.numClasses; c++ {
		probs[c] /= total
	}
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int {
	if m.w1 == nil {
		return 0
	}
	hidden := make([]float64, m.Hidden)
	probs := make([]float64, m.numClasses)
	m.forward(m.scaler.Apply(x), hidden, probs)
	return argmax(probs)
}
