package nn

import (
	"fmt"
	"math"

	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
)

// SoftmaxCrossEntropy couples the softmax activation with the cross-entropy
// loss, the standard classification head. Forward returns the mean loss
// over the batch; Backward returns d(loss)/d(logits) already divided by the
// batch size, so gradients averaged across workers by Allreduce(Sum)/M
// reproduce Equation 1 of the paper.
type SoftmaxCrossEntropy struct {
	probs  *tensor.Matrix
	labels []int
	grad   *tensor.Matrix // backward workspace, reused across calls
	arena  *arena.Arena
}

// SetArena moves the probability and gradient workspaces into a (nil
// detaches); see ArenaUser. probs must survive Forward→Backward, so the
// owner must not Reset between them.
func (l *SoftmaxCrossEntropy) SetArena(a *arena.Arena) { l.arena = a }

// Forward computes softmax probabilities and the mean cross-entropy loss.
func (l *SoftmaxCrossEntropy) Forward(logits *tensor.Matrix, labels []int) float64 {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy: %d rows but %d labels", logits.Rows, len(labels)))
	}
	l.probs = tensor.EnsureShapeArena(l.arena, l.probs, logits.Rows, logits.Cols)
	l.labels = labels
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		// Subtract the max for numerical stability.
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		pr := l.probs.Row(i)
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			pr[j] = float32(e)
			sum += e
		}
		inv := 1 / sum
		for j := range pr {
			pr[j] = float32(float64(pr[j]) * inv)
		}
		p := float64(pr[labels[i]])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	return loss / float64(logits.Rows)
}

// Backward returns the gradient of the mean loss with respect to the
// logits: (softmax - onehot) / batch. The returned matrix is a reused
// workspace, valid until the next Backward call.
func (l *SoftmaxCrossEntropy) Backward() *tensor.Matrix {
	if l.probs == nil {
		panic("nn: SoftmaxCrossEntropy.Backward called before Forward")
	}
	l.grad = tensor.EnsureShapeArena(l.arena, l.grad, l.probs.Rows, l.probs.Cols)
	grad := l.grad
	copy(grad.Data, l.probs.Data)
	inv := 1 / float32(grad.Rows)
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		row[l.labels[i]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return grad
}

// Accuracy returns the fraction of rows whose argmax logit matches the
// label.
func Accuracy(logits *tensor.Matrix, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	pred := logits.ArgmaxRows()
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
