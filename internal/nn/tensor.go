// Package nn implements the convolutional-network substrate of the
// paper's fifth benchmark: a SqueezeNet-style image classifier with an
// error-injection point at the output of each of its ten layers, and the
// classification-agreement metric p_cl measured against the error-free
// reference run.
package nn

import "fmt"

// Tensor is a dense 3-D feature map in channel-major layout (C, H, W).
type Tensor struct {
	C, H, W int
	Data    []float64 // len == C*H*W
}

// NewTensor allocates a zeroed tensor.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// reuse returns *t when it already has shape (c, h, w), and otherwise
// stores a new zeroed tensor of that shape into *t and returns it. The
// layers that write through it overwrite every element.
func reuse(t **Tensor, c, h, w int) *Tensor {
	if *t == nil || (*t).C != c || (*t).H != h || (*t).W != w {
		*t = NewTensor(c, h, w)
	}
	return *t
}

// At returns element (c, y, x).
func (t *Tensor) At(c, y, x int) float64 { return t.Data[(c*t.H+y)*t.W+x] }

// Set assigns element (c, y, x).
func (t *Tensor) Set(c, y, x int, v float64) { t.Data[(c*t.H+y)*t.W+x] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// SameShape reports whether two tensors have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.C == o.C && t.H == o.H && t.W == o.W
}
