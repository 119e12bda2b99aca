package nn

import (
	"fmt"

	"repro/internal/rng"
)

// NumLayers is the number of error-injection points: conv1, fire2..fire9
// and conv10, matching SqueezeNet's ten parameterised layers and the
// benchmark's Nv = 10.
const NumLayers = 10

// LayerNames lists the injection points in configuration order.
var LayerNames = []string{
	"conv1", "fire2", "fire3", "fire4", "fire5", "fire6", "fire7", "fire8", "fire9", "conv10",
}

// SqueezeNet is a scaled-down SqueezeNet v1.0: conv1 → pool → 8 fire
// modules with two interleaved pools → conv10 (1×1 to class logits) →
// global average pool. Channel counts are reduced so a 1000-image
// evaluation stays tractable on a laptop while keeping the ten-layer
// structure the sensitivity analysis budgets across.
type SqueezeNet struct {
	Conv1   *Conv2D
	Fires   [8]*Fire
	Conv10  *Conv2D
	Classes int
}

// NewSqueezeNet builds the network with deterministic weights from seed.
func NewSqueezeNet(seed uint64, inC, classes int) *SqueezeNet {
	r := rng.NewNamed(seed, "squeezenet-weights")
	n := &SqueezeNet{Classes: classes}
	n.Conv1 = NewConv2D(r, inC, 8, 3)
	plan := [8][3]int{
		// inC, squeeze, expand (output = 2*expand)
		{8, 2, 4},  // fire2 -> 8
		{8, 2, 4},  // fire3 -> 8
		{8, 4, 8},  // fire4 -> 16
		{16, 4, 8}, // fire5 -> 16
		{16, 4, 8}, // fire6 -> 16
		{16, 4, 8}, // fire7 -> 16
		{16, 6, 8}, // fire8 -> 16
		{16, 6, 8}, // fire9 -> 16
	}
	for i, p := range plan {
		n.Fires[i] = NewFire(r, p[0], p[1], p[2])
	}
	n.Conv10 = NewConv2D(r, 16, classes, 1)
	return n
}

// Injector perturbs the output tensor of layer index li (0..NumLayers-1).
// A nil Injector runs the reference network. The sensitivity benchmark
// injects white Gaussian noise of configurable power.
type Injector interface {
	Inject(li int, t *Tensor)
}

// activations holds the per-layer output buffers of one forward pass.
// A caller that classifies many same-shaped images passes the same
// activations to every pass, so the buffers are allocated once instead
// of once per layer per image. The logits forward returns live in it
// too and are overwritten by the next pass.
type activations struct {
	conv1, conv10 *Tensor
	pool          [3]*Tensor
	fire, squeeze [8]*Tensor
	logits        []float64
}

// Forward classifies one image tensor, returning the class logits.
// After each of the ten layers the optional injector is applied,
// modelling an approximation error source at that layer's output
// (paper: "An error source is injected at the output of each layer of
// the network").
func (n *SqueezeNet) Forward(img *Tensor, inj Injector) ([]float64, error) {
	return n.forward(img, inj, &activations{})
}

// forward is Forward with its intermediate tensors and logits in a.
func (n *SqueezeNet) forward(img *Tensor, inj Injector, a *activations) ([]float64, error) {
	t, err := n.Conv1.forward(&a.conv1, img)
	if err != nil {
		return nil, fmt.Errorf("nn: conv1: %w", err)
	}
	ReLU(t)
	if inj != nil {
		inj.Inject(0, t)
	}
	if t, err = maxPool2(&a.pool[0], t); err != nil {
		return nil, err
	}
	for i, f := range n.Fires {
		if t, err = f.forward(&a.fire[i], &a.squeeze[i], t); err != nil {
			return nil, fmt.Errorf("nn: fire%d: %w", i+2, err)
		}
		if inj != nil {
			inj.Inject(1+i, t)
		}
		// Pools after fire3 and fire7, shrinking 8x8 → 4x4 → 2x2 for a
		// 16x16 input.
		if i == 1 || i == 5 {
			if t, err = maxPool2(&a.pool[1+i/4], t); err != nil {
				return nil, err
			}
		}
	}
	t, err = n.Conv10.forward(&a.conv10, t)
	if err != nil {
		return nil, fmt.Errorf("nn: conv10: %w", err)
	}
	ReLU(t)
	if inj != nil {
		inj.Inject(9, t)
	}
	if len(a.logits) != t.C {
		a.logits = make([]float64, t.C)
	}
	return globalAvgPool(a.logits, t), nil
}

// Classify returns the argmax class of one image.
func (n *SqueezeNet) Classify(img *Tensor, inj Injector) (int, error) {
	logits, err := n.Forward(img, inj)
	if err != nil {
		return -1, err
	}
	return Argmax(logits), nil
}
