package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

var updatePin = flag.Bool("update", false, "rewrite testdata golden files instead of comparing against them")

// pinPath pins the squeezenet simulator at the Small operating point
// (seed 1, 60 images): the bit patterns of every image's reference
// logits, and for a fixed set of seeded configurations the p_cl that
// Evaluate returns plus a digest of every image's noisy logits.
const pinPath = "testdata/squeezenet_small.golden"

const (
	pinImages  = 60
	pinConfigs = 24
)

// pinConfigSet draws the pinned configurations: a per-configuration centre
// level with per-layer jitter, so the set spans p_cl from near 1 down to
// chance rather than clustering at one end.
func pinConfigSet(bounds space.Bounds) []space.Config {
	r := rng.NewNamed(1, "squeezenet-pin")
	out := make([]space.Config, pinConfigs)
	for i := range out {
		centre := r.IntRange(bounds.Lo[0], bounds.Hi[0])
		cfg := make(space.Config, NumLayers)
		for l := range cfg {
			v := centre + r.IntRange(-6, 6)
			cfg[l] = min(max(v, bounds.Lo[l]), bounds.Hi[l])
		}
		out[i] = cfg
	}
	return out
}

func hexBits(xs []float64) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return strings.Join(parts, " ")
}

// TestSqueezeNetPin compares the simulator with the committed pin. It
// runs in -short mode too: it costs about a second. Regenerate with
//
//	go test ./internal/nn -run TestSqueezeNetPin -update
func TestSqueezeNetPin(t *testing.T) {
	b, err := NewSensitivityBenchmark(1, pinImages)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := range b.Images {
		logits, err := b.Net.Forward(b.tensor(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "ref %d %s\n", i, hexBits(logits))
	}
	var buf [8]byte
	for _, cfg := range pinConfigSet(b.Bounds()) {
		p, err := b.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The noisy logits through the public Forward, with the noise
		// stream Evaluate seeds for each image.
		inj := &ModelInjector{Kind: b.Kind}
		for l, k := range cfg {
			inj.Power[l] = b.Power(k)
		}
		h := sha256.New()
		for i := range b.Images {
			inj.r = rng.NewNamed(b.seed^uint64(i+1)*0x9e3779b97f4a7c15, "squeezenet-noise")
			logits, err := b.Net.Forward(b.tensor(i), inj)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range logits {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		fmt.Fprintf(&sb, "cfg %v p_cl=%016x (%.4f) logits=%x\n", []int(cfg), math.Float64bits(p), p, h.Sum(nil))
	}
	got := sb.String()
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("squeezenet simulator drifted from %s at line %d\ngot:  %s\nwant: %s", pinPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("squeezenet simulator drifted from %s: %d lines, want %d", pinPath, len(gl), len(wl))
	}
}
