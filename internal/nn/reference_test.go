package nn

import (
	"math"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/rng"
	"repro/internal/space"
)

// naiveConv is the textbook six-loop convolution: per output pixel, the
// bias plus every in-range (ic, ky, kx) tap in order. Conv2D.Forward
// must match it bit for bit.
func naiveConv(c *Conv2D, in *Tensor) *Tensor {
	pad := c.K / 2
	out := NewTensor(c.OutC, in.H, in.W)
	for oc := 0; oc < c.OutC; oc++ {
		for y := 0; y < in.H; y++ {
			for x := 0; x < in.W; x++ {
				acc := c.Bias[oc]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						sy := y + ky - pad
						if sy < 0 || sy >= in.H {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							sx := x + kx - pad
							if sx < 0 || sx >= in.W {
								continue
							}
							acc += c.Weight[((oc*c.InC+ic)*c.K+ky)*c.K+kx] * in.At(ic, sy, sx)
						}
					}
				}
				out.Set(oc, y, x, acc)
			}
		}
	}
	return out
}

func TestConvMatchesNaiveKernel(t *testing.T) {
	r := rng.NewNamed(1, "conv-reference")
	shapes := [][2]int{{1, 1}, {2, 2}, {3, 5}, {16, 16}}
	for _, k := range []int{1, 3} {
		for inC := 1; inC <= 8; inC++ {
			for _, hw := range shapes {
				c := NewConv2D(r, inC, 3, k)
				in := NewTensor(inC, hw[0], hw[1])
				for i := range in.Data {
					in.Data[i] = r.NormScaled(0, 2)
				}
				want := naiveConv(c, in)
				got, err := c.Forward(in)
				if err != nil {
					t.Fatal(err)
				}
				// A reused buffer holding garbage must come out the same.
				stale := NewTensor(c.OutC, hw[0], hw[1])
				for i := range stale.Data {
					stale.Data[i] = math.NaN()
				}
				reused, err := c.forward(&stale, in)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) ||
						math.Float64bits(reused.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("K=%d InC=%d %dx%d: element %d = %v (reused %v), naive %v",
							k, inC, hw[0], hw[1], i, got.Data[i], reused.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestAllocsSensitivityEvaluate gates the per-image cost of Evaluate:
// the activation buffers are allocated once per call, so going from 10
// to 40 images may add at most one allocation per image (its noise
// stream).
func TestAllocsSensitivityEvaluate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation gates are measured without -race (see scripts/check_allocs.sh)")
	}
	cfg := make(space.Config, NumLayers)
	for i := range cfg {
		cfg[i] = 10
	}
	allocs := func(images int) float64 {
		b, err := NewSensitivityBenchmark(1, images)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := b.Evaluate(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(40)
	if extra := many - few; extra > 30 {
		t.Errorf("Evaluate makes %v allocations at 10 images and %v at 40: %v for 30 more images, want <= 30", few, many, extra)
	}
}
