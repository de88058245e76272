package nn

// Schedule maps training progress (fractional epochs) to a learning rate.
// The paper keeps each model's original regime: base LR with step decay for
// ImageNet-style runs (Goyal et al.) and a linear warmup for large-batch
// training.
type Schedule interface {
	LR(epoch float64) float32
}

// Constant is a flat learning rate.
type Constant struct{ Base float32 }

// LR returns the constant rate.
func (s Constant) LR(epoch float64) float32 { return s.Base }

// StepDecay multiplies the base rate by Gamma at every listed milestone
// epoch (Goyal et al.'s /10 at epochs 30, 60, 80 for ImageNet).
type StepDecay struct {
	Base       float32
	Gamma      float32
	Milestones []float64
}

// LR returns the decayed rate at the given epoch.
func (s StepDecay) LR(epoch float64) float32 {
	lr := s.Base
	for _, m := range s.Milestones {
		if epoch >= m {
			lr *= s.Gamma
		}
	}
	return lr
}

// Warmup linearly ramps the rate from Base*StartFactor to the wrapped
// schedule's value over Epochs, then defers to the wrapped schedule. It is
// the standard large-batch warmup (Goyal et al.) the paper uses with LARS.
type Warmup struct {
	Inner       Schedule
	Epochs      float64
	StartFactor float32
}

// LR returns the warmed-up rate.
func (s Warmup) LR(epoch float64) float32 {
	target := s.Inner.LR(epoch)
	if epoch >= s.Epochs || s.Epochs <= 0 {
		return target
	}
	frac := float32(epoch / s.Epochs)
	return target * (s.StartFactor + (1-s.StartFactor)*frac)
}
