package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Conv2D is a 2-D convolution with square kernels, stride 1 and "same"
// zero padding for odd kernel sizes (pad = K/2).
type Conv2D struct {
	InC, OutC, K int
	Weight       []float64 // [outC][inC][K][K] flattened
	Bias         []float64 // [outC]
}

// NewConv2D builds a convolution with He-scaled deterministic
// pseudo-random weights drawn from r. The sensitivity benchmark does not
// need trained weights (its metric is agreement with the error-free run
// of the same network), but the scaling keeps activations in a sane range
// through ten layers.
func NewConv2D(r *rng.Stream, inC, outC, k int) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, K: k,
		Weight: make([]float64, outC*inC*k*k),
		Bias:   make([]float64, outC),
	}
	std := math.Sqrt(2 / float64(inC*k*k))
	for i := range c.Weight {
		c.Weight[i] = r.NormScaled(0, std)
	}
	for i := range c.Bias {
		c.Bias[i] = r.NormScaled(0, 0.05)
	}
	return c
}

// Forward applies the convolution.
func (c *Conv2D) Forward(in *Tensor) (*Tensor, error) {
	var out *Tensor
	return c.forward(&out, in)
}

// forward applies the convolution into *dst, replacing *dst with a new
// tensor unless it already has the output's shape.
func (c *Conv2D) forward(dst **Tensor, in *Tensor) (*Tensor, error) {
	if err := c.checkInput(in); err != nil {
		return nil, err
	}
	out := reuse(dst, c.OutC, in.H, in.W)
	c.accumulate(out.Data, in)
	return out, nil
}

func (c *Conv2D) checkInput(in *Tensor) error {
	if in.C != c.InC {
		return fmt.Errorf("nn: conv expects %d input channels, got %d", c.InC, in.C)
	}
	return nil
}

// accumulate writes the convolution of in into dst (OutC planes of
// in.H×in.W). Each output plane starts at its bias and then adds w·in
// over the whole plane for one (ic, ky, kx) tap at a time, in that
// order, skipping the taps that fall in the zero padding. Every output
// therefore sums exactly the terms, in exactly the order, of the
// textbook per-pixel loop, so the result is the same bit for bit; only
// the loop nest is turned inside out so the inner loop runs over
// contiguous rows.
func (c *Conv2D) accumulate(dst []float64, in *Tensor) {
	h, w := in.H, in.W
	plane := h * w
	kk := c.K * c.K
	pad := c.K / 2
	for oc := 0; oc < c.OutC; oc++ {
		out := dst[oc*plane : (oc+1)*plane]
		b := c.Bias[oc]
		for i := range out {
			out[i] = b
		}
		weights := c.Weight[oc*c.InC*kk : (oc+1)*c.InC*kk]
		for ic := 0; ic < c.InC; ic++ {
			src := in.Data[ic*plane : (ic+1)*plane]
			if c.K == 1 {
				wv := weights[ic]
				for i, v := range src {
					out[i] += wv * v
				}
				continue
			}
			for ky := 0; ky < c.K; ky++ {
				dy := ky - pad
				y0, y1 := max(0, -dy), min(h, h-dy)
				for kx := 0; kx < c.K; kx++ {
					dx := kx - pad
					x0, x1 := max(0, -dx), min(w, w-dx)
					if x0 >= x1 {
						continue
					}
					wv := weights[(ic*c.K+ky)*c.K+kx]
					for y := y0; y < y1; y++ {
						o := out[y*w+x0 : y*w+x1]
						s := src[(y+dy)*w+x0+dx : (y+dy)*w+x1+dx]
						for i, v := range s {
							o[i] += wv * v
						}
					}
				}
			}
		}
	}
}

// ReLU applies max(0, x) element-wise, in place, and returns its input.
func ReLU(t *Tensor) *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// MaxPool2 halves the spatial dimensions with a 2×2/stride-2 max pool.
// Odd trailing rows/columns are dropped (floor semantics).
func MaxPool2(in *Tensor) (*Tensor, error) {
	var out *Tensor
	return maxPool2(&out, in)
}

// maxPool2 is MaxPool2 into *dst, replacing *dst with a new tensor
// unless it already has the output's shape.
func maxPool2(dst **Tensor, in *Tensor) (*Tensor, error) {
	oh, ow := in.H/2, in.W/2
	if oh == 0 || ow == 0 {
		return nil, fmt.Errorf("nn: maxpool on %dx%d spatial input", in.H, in.W)
	}
	out := reuse(dst, in.C, oh, ow)
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				m := in.At(c, 2*y, 2*x)
				if v := in.At(c, 2*y, 2*x+1); v > m {
					m = v
				}
				if v := in.At(c, 2*y+1, 2*x); v > m {
					m = v
				}
				if v := in.At(c, 2*y+1, 2*x+1); v > m {
					m = v
				}
				out.Set(c, y, x, m)
			}
		}
	}
	return out, nil
}

// GlobalAvgPool reduces each channel to its spatial mean, returning a
// C-length vector.
func GlobalAvgPool(in *Tensor) []float64 {
	return globalAvgPool(make([]float64, in.C), in)
}

// globalAvgPool is GlobalAvgPool into out (len in.C), which it returns.
func globalAvgPool(out []float64, in *Tensor) []float64 {
	plane := in.H * in.W
	n := float64(plane)
	for c := range out {
		var s float64
		for _, v := range in.Data[c*plane : (c+1)*plane] {
			s += v
		}
		out[c] = s / n
	}
	return out
}

// Softmax returns the softmax of the logits (numerically stabilised).
func Softmax(logits []float64) []float64 {
	if len(logits) == 0 {
		return nil
	}
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - mx)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Argmax returns the index of the largest element (lowest index wins
// ties), or -1 for empty input.
func Argmax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, v := range xs[1:] {
		if v > xs[best] {
			best = i + 1
		}
	}
	return best
}

// Fire is the SqueezeNet fire module: a 1×1 squeeze convolution followed
// by parallel 1×1 and 3×3 expand convolutions whose outputs are
// concatenated along the channel axis.
type Fire struct {
	Squeeze   *Conv2D
	Expand1x1 *Conv2D
	Expand3x3 *Conv2D
}

// NewFire builds a fire module with the given channel plan.
func NewFire(r *rng.Stream, inC, squeezeC, expandC int) *Fire {
	return &Fire{
		Squeeze:   NewConv2D(r, inC, squeezeC, 1),
		Expand1x1: NewConv2D(r, squeezeC, expandC, 1),
		Expand3x3: NewConv2D(r, squeezeC, expandC, 3),
	}
}

// OutC returns the module's output channel count.
func (f *Fire) OutC() int { return f.Expand1x1.OutC + f.Expand3x3.OutC }

// Forward applies the module (ReLU after squeeze and after each expand).
func (f *Fire) Forward(in *Tensor) (*Tensor, error) {
	var out, squeezed *Tensor
	return f.forward(&out, &squeezed, in)
}

// forward applies the module into *dst, using *squeezed for the squeeze
// output; either is replaced by a new tensor unless it already has the
// right shape. The two expand convolutions write straight into their
// channel ranges of the output, which is the concatenation.
func (f *Fire) forward(dst, squeezed **Tensor, in *Tensor) (*Tensor, error) {
	s, err := f.Squeeze.forward(squeezed, in)
	if err != nil {
		return nil, err
	}
	ReLU(s)
	if err := f.Expand1x1.checkInput(s); err != nil {
		return nil, err
	}
	if err := f.Expand3x3.checkInput(s); err != nil {
		return nil, err
	}
	out := reuse(dst, f.OutC(), in.H, in.W)
	split := f.Expand1x1.OutC * in.H * in.W
	f.Expand1x1.accumulate(out.Data[:split], s)
	f.Expand3x3.accumulate(out.Data[split:], s)
	return ReLU(out), nil
}
