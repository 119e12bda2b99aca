// Package hevc implements the paper's fourth benchmark: the 2-D motion
// compensation (fractional-pel interpolation) module of an HEVC codec,
// processing 8×8 blocks with the standard HEVC 8-tap luma interpolation
// filters, exposed as a fixed-point datapath with 23 word-length
// optimisation variables.
//
// The datapath follows the HEVC structure: an 8-tap horizontal filter
// produces an intermediate block, then an 8-tap vertical filter produces
// the prediction. The 23 quantisation nodes are: the input register (1),
// the eight horizontal tap products (8), the horizontal accumulator and
// its normalised output (2), the intermediate line buffer the vertical
// pass reads (1), the eight vertical tap products (8), the vertical
// accumulator and its normalised output (2), and the final output
// register (1); see VariableNames.
package hevc

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/space"
)

// BlockSize is the benchmark's block dimension (8×8 per the paper).
const BlockSize = 8

// taps is the length of the HEVC luma interpolation filters.
const taps = 8

// lumaFilters holds the HEVC luma interpolation filter coefficients for
// fractional positions 1/4, 2/4 and 3/4 (HEVC spec Table 8-11),
// normalised by 64 to unit DC gain.
var lumaFilters = [3][taps]float64{
	{-1. / 64, 4. / 64, -10. / 64, 58. / 64, 17. / 64, -5. / 64, 1. / 64, 0},
	{-1. / 64, 4. / 64, -11. / 64, 40. / 64, 40. / 64, -11. / 64, 4. / 64, -1. / 64},
	{0, 1. / 64, -5. / 64, 17. / 64, 58. / 64, -10. / 64, 4. / 64, -1. / 64},
}

// MotionVector is a fractional-pel displacement: FracX/FracY in {0..3}
// quarter-pel units. Integer parts are irrelevant to the datapath (they
// only shift the source window), so the benchmark draws only fractions.
type MotionVector struct {
	FracX, FracY int
}

// Interp is the word-length-configurable interpolator.
type Interp struct {
	path    *fixed.Datapath
	inNode  *fixed.Node
	hProd   [taps]*fixed.Node
	hAcc    *fixed.Node
	hOut    *fixed.Node
	inter   *fixed.Node
	vProd   [taps]*fixed.Node
	vAcc    *fixed.Node
	vOut    *fixed.Node
	outNode *fixed.Node
}

// VariableNames lists the 23 optimisation variables in configuration
// order.
var VariableNames = func() []string {
	names := []string{"input"}
	for i := 0; i < taps; i++ {
		names = append(names, fmt.Sprintf("h_prod%d", i))
	}
	names = append(names, "h_acc", "h_out", "inter")
	for i := 0; i < taps; i++ {
		names = append(names, fmt.Sprintf("v_prod%d", i))
	}
	names = append(names, "v_acc", "v_out", "output")
	return names
}()

// NewInterp builds the interpolator datapath.
func NewInterp() *Interp {
	ip := &Interp{path: fixed.NewDatapath()}
	ip.inNode = ip.path.AddNode("input", 0)
	for i := 0; i < taps; i++ {
		ip.hProd[i] = ip.path.AddNode(fmt.Sprintf("h_prod%d", i), 0)
	}
	// Σ|c| = 96/64 = 1.5, so accumulators need one integer bit.
	ip.hAcc = ip.path.AddNode("h_acc", 1)
	ip.hOut = ip.path.AddNode("h_out", 1)
	ip.inter = ip.path.AddNode("inter", 1)
	for i := 0; i < taps; i++ {
		ip.vProd[i] = ip.path.AddNode(fmt.Sprintf("v_prod%d", i), 1)
	}
	ip.vAcc = ip.path.AddNode("v_acc", 2)
	ip.vOut = ip.path.AddNode("v_out", 1)
	ip.outNode = ip.path.AddNode("output", 1)
	return ip
}

// Nv returns the number of optimisation variables (23).
func (ip *Interp) Nv() int { return ip.path.Nv() }

// Bounds returns the word-length search box used in the experiments.
func (ip *Interp) Bounds() space.Bounds { return space.UniformBounds(ip.Nv(), 2, 14) }

// padded returns the (BlockSize+taps-1)² source window needed to
// interpolate one block: the block itself extended by the filter support
// (3 left/top, 4 right/bottom). The benchmark synthesises the window
// directly.
const window = BlockSize + taps - 1

// filterFor returns the filter for a quarter-pel fraction (1..3).
func filterFor(frac int) (*[taps]float64, error) {
	if frac < 1 || frac > 3 {
		return nil, fmt.Errorf("hevc: fraction %d outside 1..3", frac)
	}
	return &lumaFilters[frac-1], nil
}

// Reference interpolates the 8×8 block at the given fractional position
// from the padded source window src (window×window, pixel values in
// [0, 1)) in double precision.
func (ip *Interp) Reference(src [][]float64, mv MotionVector) ([][]float64, error) {
	if err := checkWindow(src); err != nil {
		return nil, err
	}
	if mv.FracX == 0 && mv.FracY == 0 {
		// Integer-pel copy of the central block.
		out := newBlock()
		for y := 0; y < BlockSize; y++ {
			for x := 0; x < BlockSize; x++ {
				out[y][x] = src[y+3][x+3]
			}
		}
		return out, nil
	}
	// Horizontal pass over all rows the vertical filter will touch.
	inter := make([][]float64, window)
	for y := 0; y < window; y++ {
		inter[y] = make([]float64, BlockSize)
		for x := 0; x < BlockSize; x++ {
			if mv.FracX == 0 {
				inter[y][x] = src[y][x+3]
				continue
			}
			fx, err := filterFor(mv.FracX)
			if err != nil {
				return nil, err
			}
			var acc float64
			for t := 0; t < taps; t++ {
				acc += fx[t] * src[y][x+t]
			}
			inter[y][x] = acc
		}
	}
	out := newBlock()
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			if mv.FracY == 0 {
				out[y][x] = inter[y+3][x]
				continue
			}
			fy, err := filterFor(mv.FracY)
			if err != nil {
				return nil, err
			}
			var acc float64
			for t := 0; t < taps; t++ {
				acc += fy[t] * inter[y+t][x]
			}
			out[y][x] = acc
		}
	}
	return out, nil
}

// Fixed interpolates through the word-length-configured datapath. It
// does not mutate shared state, so one Interp may serve concurrent
// evaluations under different configurations.
func (ip *Interp) Fixed(cfg space.Config, src [][]float64, mv MotionVector) ([][]float64, error) {
	fmts, err := ip.path.Formats(cfg)
	if err != nil {
		return nil, err
	}
	var out [BlockSize][BlockSize]float64
	if err := ip.run(&out, fmts, src, mv); err != nil {
		return nil, err
	}
	return blockRows(&out), nil
}

// run interpolates one block through the datapath with per-node formats
// fmts (as Datapath.Formats returns them) into out.
func (ip *Interp) run(out *[BlockSize][BlockSize]float64, fmts []fixed.Format, src [][]float64, mv MotionVector) error {
	var (
		inFmt   = fmts[0]
		hProd   = fmts[1 : 1+taps]
		hAccFmt = fmts[1+taps]
		hOutFmt = fmts[2+taps]
		interF  = fmts[3+taps]
		vProd   = fmts[4+taps : 4+2*taps]
		vAccFmt = fmts[4+2*taps]
		vOutFmt = fmts[5+2*taps]
		outFmt  = fmts[6+2*taps]
	)
	if err := checkWindow(src); err != nil {
		return err
	}
	var fx, fy *[taps]float64
	var err error
	if mv.FracX != 0 {
		if fx, err = filterFor(mv.FracX); err != nil {
			return err
		}
	}
	if mv.FracY != 0 {
		if fy, err = filterFor(mv.FracY); err != nil {
			return err
		}
	}
	var inter [window][BlockSize]float64
	for y := 0; y < window; y++ {
		// Input registers, one row at a time: the horizontal pass reads
		// only its own row.
		var q [window]float64
		for x := range q {
			q[x] = inFmt.Quantize(src[y][x])
		}
		for x := 0; x < BlockSize; x++ {
			if fx == nil {
				inter[y][x] = hOutFmt.Quantize(q[x+3])
				continue
			}
			var acc float64
			for t := 0; t < taps; t++ {
				if fx[t] == 0 {
					continue
				}
				acc = hAccFmt.Quantize(acc + hProd[t].Quantize(fx[t]*q[x+t]))
			}
			inter[y][x] = interF.Quantize(hOutFmt.Quantize(acc))
		}
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			var v float64
			if fy == nil {
				v = inter[y+3][x]
			} else {
				var acc float64
				for t := 0; t < taps; t++ {
					if fy[t] == 0 {
						continue
					}
					acc = vAccFmt.Quantize(acc + vProd[t].Quantize(fy[t]*inter[y+t][x]))
				}
				v = vOutFmt.Quantize(acc)
			}
			out[y][x] = outFmt.Quantize(v)
		}
	}
	return nil
}

// blockRows copies a block into the row-slice form Fixed returns.
func blockRows(b *[BlockSize][BlockSize]float64) [][]float64 {
	out := newBlock()
	for y := range out {
		copy(out[y], b[y][:])
	}
	return out
}

// addSquaredError adds Σ (out - ref)² to s in row-major order and
// returns the sum. Carried across blocks it adds the terms in the order
// metrics.NoisePower would over the flattened blocks, so the total is
// the same bit for bit without building the flattened sequences.
func addSquaredError(s float64, out *[BlockSize][BlockSize]float64, ref [][]float64) float64 {
	for y := range out {
		for x, v := range out[y] {
			d := v - ref[y][x]
			s += d * d
		}
	}
	return s
}

func newBlock() [][]float64 {
	b := make([][]float64, BlockSize)
	for i := range b {
		b[i] = make([]float64, BlockSize)
	}
	return b
}

func checkWindow(src [][]float64) error {
	if len(src) != window {
		return fmt.Errorf("hevc: source window has %d rows, want %d", len(src), window)
	}
	for i, row := range src {
		if len(row) != window {
			return fmt.Errorf("hevc: source window row %d has %d columns, want %d", i, len(row), window)
		}
	}
	return nil
}

// Benchmark is the motion-compensation noise-power benchmark: a set of
// source windows with non-integer motion vectors, evaluated against the
// double-precision reference.
type Benchmark struct {
	ip   *Interp
	srcs [][][]float64
	mvs  []MotionVector
	refs [][][]float64
}

// NewBenchmark synthesises nBlocks source windows and fractional motion
// vectors from the seed and precomputes the reference predictions.
func NewBenchmark(seed uint64, nBlocks int) (*Benchmark, error) {
	if nBlocks <= 0 {
		return nil, fmt.Errorf("hevc: non-positive block count %d", nBlocks)
	}
	b := &Benchmark{ip: NewInterp()}
	r := rng.NewNamed(seed, "hevc-blocks")
	for i := 0; i < nBlocks; i++ {
		src := dataset.Block(r, window, window, 0.999)
		// Non-integer motion vectors only: that is the case the module
		// exists for ("interpolate the block in the case of non-integer
		// motion vector").
		mv := MotionVector{FracX: r.IntRange(1, 3), FracY: r.IntRange(1, 3)}
		ref, err := b.ip.Reference(src, mv)
		if err != nil {
			return nil, err
		}
		b.srcs = append(b.srcs, src)
		b.mvs = append(b.mvs, mv)
		b.refs = append(b.refs, ref)
	}
	return b, nil
}

// Name identifies the benchmark.
func (b *Benchmark) Name() string { return "hevc" }

// Nv returns the number of optimisation variables (23).
func (b *Benchmark) Nv() int { return b.ip.Nv() }

// Bounds returns the word-length search box.
func (b *Benchmark) Bounds() space.Bounds { return b.ip.Bounds() }

// NoisePower measures P for one configuration across all blocks.
func (b *Benchmark) NoisePower(cfg space.Config) (float64, error) {
	fmts, err := b.ip.path.Formats(cfg)
	if err != nil {
		return 0, err
	}
	var out [BlockSize][BlockSize]float64
	var s float64
	for i := range b.srcs {
		if err := b.ip.run(&out, fmts, b.srcs[i], b.mvs[i]); err != nil {
			return 0, err
		}
		s = addSquaredError(s, &out, b.refs[i])
	}
	return s / float64(len(b.srcs)*BlockSize*BlockSize), nil
}
