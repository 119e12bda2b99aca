package hevc

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/raceflag"
	"repro/internal/rng"
	"repro/internal/space"
)

// flatNoisePower is NoisePower as first written: every block through the
// public Fixed, flattened, then metrics.NoisePower.
func flatNoisePower(t *testing.T, fixed func(i int) ([][]float64, error), refs [][][]float64) float64 {
	t.Helper()
	var flatFixed, flatRef []float64
	for i := range refs {
		out, err := fixed(i)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < BlockSize; y++ {
			flatFixed = append(flatFixed, out[y]...)
			flatRef = append(flatRef, refs[i][y]...)
		}
	}
	p, err := metrics.NoisePower(flatFixed, flatRef)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomConfigs(nv, n int, b space.Bounds) []space.Config {
	r := rng.NewNamed(1, "hevc-noisepower")
	out := make([]space.Config, n)
	for i := range out {
		cfg := make(space.Config, nv)
		for j := range cfg {
			cfg[j] = r.IntRange(b.Lo[j], b.Hi[j])
		}
		out[i] = cfg
	}
	return out
}

func TestNoisePowerMatchesFlatReference(t *testing.T) {
	luma, err := NewBenchmark(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	chroma, err := NewChromaBenchmark(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range randomConfigs(luma.Nv(), 20, luma.Bounds()) {
		got, err := luma.NoisePower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := flatNoisePower(t, func(i int) ([][]float64, error) {
			return luma.ip.Fixed(cfg, luma.srcs[i], luma.mvs[i])
		}, luma.refs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("luma %v: NoisePower %v, flattened reference %v", cfg, got, want)
		}
	}
	for _, cfg := range randomConfigs(chroma.Nv(), 20, chroma.Bounds()) {
		got, err := chroma.NoisePower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := flatNoisePower(t, func(i int) ([][]float64, error) {
			return chroma.ip.Fixed(cfg, chroma.srcs[i], chroma.mvs[i])
		}, chroma.refs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("chroma %v: NoisePower %v, flattened reference %v", cfg, got, want)
		}
	}
}

// TestAllocsNoisePower gates NoisePower at one allocation per call (the
// per-node formats), whatever the block count.
func TestAllocsNoisePower(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation gates are measured without -race (see scripts/check_allocs.sh)")
	}
	luma, err := NewBenchmark(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	chroma, err := NewChromaBenchmark(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []interface {
		Bounds() space.Bounds
		NoisePower(space.Config) (float64, error)
	}{luma, chroma} {
		cfg := b.Bounds().Corner(false)
		n := testing.AllocsPerRun(5, func() {
			if _, err := b.NoisePower(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("NoisePower allocates %v times per call, want <= 1", n)
		}
	}
}
