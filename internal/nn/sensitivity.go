package nn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/space"
)

// GaussianInjector adds zero-mean white Gaussian noise at each layer
// output. Sigma[li] is the noise standard deviation at layer li; zero
// disables injection at that layer. The noise stream is deterministic per
// (injector seed, image index), so that two evaluations of the same
// configuration agree exactly.
type GaussianInjector struct {
	Sigma [NumLayers]float64
	r     *rng.Stream
}

// Inject implements Injector.
func (g *GaussianInjector) Inject(li int, t *Tensor) {
	s := g.Sigma[li]
	if s == 0 {
		return
	}
	for i := range t.Data {
		t.Data[i] += s * g.r.Norm()
	}
}

// SensitivityBenchmark is the paper's fifth benchmark: error-sensitivity
// analysis of the SqueezeNet-style classifier.
//
// A configuration assigns each of the ten layers an integer error-power
// index k ∈ [Lo, Hi]; index k injects white Gaussian noise of power
// P(k) = 2^(k - PowerBias) (standard deviation sqrt(P)). Larger k means a
// louder error source, i.e. a cheaper approximate implementation. The
// quality metric λ = p_cl is the probability that the classification
// matches the error-free reference over the image set.
type SensitivityBenchmark struct {
	Net     *SqueezeNet
	Images  []dataset.Image
	refs    []int // reference classification per image
	seed    uint64
	classes int

	// PowerBias positions the index scale: index 0 injects power
	// 2^-PowerBias. With the default 16 the quietest sources are far
	// below the activations and the loudest dominate them.
	PowerBias int
	// StepLog2 is the per-index power step in log2 units; the default
	// 0.5 (≈1.5 dB per step) keeps successive budgeting candidates
	// close in quality so the optimiser's trajectory degrades smoothly
	// rather than crashing through the constraint.
	StepLog2 float64
	// IndexMax is the loudest permitted index (bounds Hi).
	IndexMax int
	// Kind selects the error model; the zero value is GaussianNoise.
	Kind InjectorKind
}

// NewSensitivityBenchmark builds the benchmark: a deterministic network,
// nImages synthetic images, and their reference classifications.
func NewSensitivityBenchmark(seed uint64, nImages int) (*SensitivityBenchmark, error) {
	if nImages <= 0 {
		return nil, errors.New("nn: non-positive image count")
	}
	const classes = 10
	b := &SensitivityBenchmark{
		Net:       NewSqueezeNet(seed, 3, classes),
		Images:    dataset.Images(rng.NewNamed(seed, "squeezenet-images"), nImages, 3, 16, 16, classes),
		seed:      seed,
		classes:   classes,
		PowerBias: 16,
		StepLog2:  0.5,
		IndexMax:  28,
	}
	acts := &activations{}
	for i := range b.Images {
		logits, err := b.Net.forward(b.tensor(i), nil, acts)
		if err != nil {
			return nil, fmt.Errorf("nn: reference classification of image %d: %w", i, err)
		}
		b.refs = append(b.refs, Argmax(logits))
	}
	return b, nil
}

func (b *SensitivityBenchmark) tensor(i int) *Tensor {
	img := &b.Images[i]
	t := &Tensor{C: img.Ch, H: img.H, W: img.W, Data: img.Pix}
	return t
}

// Name identifies the benchmark.
func (b *SensitivityBenchmark) Name() string { return "squeezenet" }

// Nv returns the number of error sources (10).
func (b *SensitivityBenchmark) Nv() int { return NumLayers }

// Bounds returns the error-power index box: [0, IndexMax] per layer.
func (b *SensitivityBenchmark) Bounds() space.Bounds {
	return space.UniformBounds(NumLayers, 0, b.IndexMax)
}

// Power converts an index to the injected noise power.
func (b *SensitivityBenchmark) Power(index int) float64 {
	return math.Exp2(b.StepLog2*float64(index) - float64(b.PowerBias))
}

// Evaluate returns λ(cfg) = p_cl, the fraction of images classified
// identically to the error-free reference under the configured injection.
// It satisfies evaluator.Simulator / optim.Oracle.
func (b *SensitivityBenchmark) Evaluate(cfg space.Config) (float64, error) {
	if len(cfg) != NumLayers {
		return 0, fmt.Errorf("nn: configuration has %d entries, want %d", len(cfg), NumLayers)
	}
	inj := &ModelInjector{Kind: b.Kind}
	for i, k := range cfg {
		if k < 0 {
			return 0, fmt.Errorf("nn: negative error index %d at layer %s", k, LayerNames[i])
		}
		inj.Power[i] = b.Power(k)
	}
	// One set of activation buffers serves every image of this call;
	// it is not shared with other calls, so concurrent evaluations stay
	// independent.
	acts := &activations{}
	agree := 0
	for i := range b.Images {
		// Reseed per image so the noise realisation is independent of
		// evaluation order and identical across repeated evaluations of
		// the same configuration.
		inj.r = rng.NewNamed(b.seed^uint64(i+1)*0x9e3779b97f4a7c15, "squeezenet-noise")
		logits, err := b.Net.forward(b.tensor(i), inj, acts)
		if err != nil {
			return 0, err
		}
		if Argmax(logits) == b.refs[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(b.Images)), nil
}

// ReferenceAgreementFloor returns the p_cl of the all-quietest
// configuration, a diagnostic used by tests (should be 1.0 or extremely
// close: index 0 injects power 2^-PowerBias).
func (b *SensitivityBenchmark) ReferenceAgreementFloor() (float64, error) {
	cfg := make(space.Config, NumLayers)
	return b.Evaluate(cfg)
}
