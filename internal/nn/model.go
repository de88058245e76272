package nn

import (
	"fmt"

	"plshuffle/internal/rng"
)

// Norm selects the normalization layer inserted after each hidden Linear.
type Norm string

// Normalization choices. NormBatch is the paper's default (what the real
// architectures use); NormGroup is the Section IV-A.1 alternative whose
// statistics are per-sample and therefore immune to shard bias; NormNone
// disables normalization.
const (
	NormBatch Norm = "batch"
	NormGroup Norm = "group"
	NormNone  Norm = "none"
)

// ModelSpec describes an MLP proxy for one of the paper's architectures.
// Hidden lists the widths of the hidden layers; BatchNorm inserts a
// BatchNorm after every hidden Linear (before the ReLU, as in the original
// networks); Dropout, if non-zero, is applied after each activation.
// Norm, when set, overrides BatchNorm with an explicit normalization
// choice (batch, group, or none).
type ModelSpec struct {
	Name      string
	InputDim  int
	Hidden    []int
	Classes   int
	BatchNorm bool
	Norm      Norm
	Dropout   float32
}

// norm resolves the effective normalization choice.
func (s ModelSpec) norm() Norm {
	if s.Norm != "" {
		return s.Norm
	}
	if s.BatchNorm {
		return NormBatch
	}
	return NormNone
}

// Validate reports configuration errors.
func (s ModelSpec) Validate() error {
	if s.InputDim <= 0 {
		return fmt.Errorf("nn: model %q: InputDim must be positive, got %d", s.Name, s.InputDim)
	}
	if s.Classes < 2 {
		return fmt.Errorf("nn: model %q: Classes must be >= 2, got %d", s.Name, s.Classes)
	}
	for i, h := range s.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: model %q: Hidden[%d] must be positive, got %d", s.Name, i, h)
		}
	}
	if s.Dropout < 0 || s.Dropout >= 1 {
		return fmt.Errorf("nn: model %q: Dropout %v out of [0,1)", s.Name, s.Dropout)
	}
	switch s.Norm {
	case "", NormBatch, NormGroup, NormNone:
	default:
		return fmt.Errorf("nn: model %q: unknown Norm %q", s.Name, s.Norm)
	}
	return nil
}

// groupsFor picks the largest group count in {8,4,2,1} dividing dim.
func groupsFor(dim int) int {
	for _, g := range []int{8, 4, 2} {
		if dim%g == 0 {
			return g
		}
	}
	return 1
}

// Build constructs the model. Weight initialization is drawn from
// initSeed, so every worker building with the same seed starts from
// identical weights (the paper's "initialize the weights with the same
// random seed" assumption in Section IV-A). Dropout masks are drawn from
// dropSeed, which should differ per worker.
func (s ModelSpec) Build(initSeed, dropSeed uint64) (*Sequential, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	initRNG := rng.New(initSeed)
	dropRNG := rng.New(dropSeed)
	var layers []Layer
	in := s.InputDim
	for _, h := range s.Hidden {
		layers = append(layers, NewLinear(in, h, initRNG))
		switch s.norm() {
		case NormBatch:
			layers = append(layers, NewBatchNorm(h))
		case NormGroup:
			layers = append(layers, NewGroupNorm(h, groupsFor(h)))
		}
		layers = append(layers, NewReLU())
		if s.Dropout > 0 {
			layers = append(layers, NewDropout(s.Dropout, dropRNG))
		}
		in = h
	}
	layers = append(layers, NewLinear(in, s.Classes, initRNG))
	return NewSequential(layers...), nil
}

// Proxy model specs for the architectures in Table I. Widths are chosen so
// relative capacity ordering matches the real networks while keeping a full
// figure regeneration in the seconds range; BatchNorm placement mirrors the
// originals (all of them use batch normalization except the classifier
// head). InputDim and Classes are filled in from the dataset at build time
// via WithData.
var proxySpecs = map[string]ModelSpec{
	"resnet50":     {Name: "resnet50", Hidden: []int{96, 96, 48}, BatchNorm: true},
	"densenet161":  {Name: "densenet161", Hidden: []int{128, 128, 64}, BatchNorm: true},
	"wideresnet28": {Name: "wideresnet28", Hidden: []int{192, 96}, BatchNorm: true},
	"inceptionv4":  {Name: "inceptionv4", Hidden: []int{64, 64, 64, 64}, BatchNorm: true},
	"deepcam":      {Name: "deepcam", Hidden: []int{48, 48}, BatchNorm: true},
	"mlp":          {Name: "mlp", Hidden: []int{64}, BatchNorm: false},
}

// ProxySpec returns the proxy ModelSpec for one of the paper's model names
// ("resnet50", "densenet161", "wideresnet28", "inceptionv4", "deepcam",
// or the plain "mlp").
func ProxySpec(name string) (ModelSpec, error) {
	s, ok := proxySpecs[name]
	if !ok {
		return ModelSpec{}, fmt.Errorf("nn: unknown proxy model %q", name)
	}
	return s, nil
}

// WithData returns a copy of the spec bound to a dataset's input dimension
// and class count.
func (s ModelSpec) WithData(inputDim, classes int) ModelSpec {
	s.InputDim = inputDim
	s.Classes = classes
	return s
}

// WithNorm returns a copy using the given normalization layer; used by the
// normalization ablation (batch vs group vs none).
func (s ModelSpec) WithNorm(n Norm) ModelSpec {
	s.Norm = n
	s.BatchNorm = n == NormBatch
	return s
}
