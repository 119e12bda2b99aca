package space

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestUniformBounds(t *testing.T) {
	b := UniformBounds(3, 2, 16)
	if b.Dim() != 3 {
		t.Fatalf("Dim = %d", b.Dim())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if b.Lo[i] != 2 || b.Hi[i] != 16 {
			t.Fatal("wrong bounds")
		}
	}
}

func TestValidateRejectsInverted(t *testing.T) {
	b := Bounds{Lo: []int{5}, Hi: []int{3}}
	if b.Validate() == nil {
		t.Error("inverted bounds validated")
	}
	b2 := Bounds{Lo: []int{1, 2}, Hi: []int{3}}
	if b2.Validate() == nil {
		t.Error("mismatched bounds validated")
	}
}

func TestContainsClamp(t *testing.T) {
	b := UniformBounds(2, 0, 10)
	if !b.Contains(Config{0, 10}) {
		t.Error("corner not contained")
	}
	if b.Contains(Config{-1, 5}) || b.Contains(Config{5, 11}) {
		t.Error("out-of-box contained")
	}
	if b.Contains(Config{5}) {
		t.Error("wrong-dimension config contained")
	}
	c := b.Clamp(Config{-5, 20})
	if c[0] != 0 || c[1] != 10 {
		t.Errorf("Clamp = %v", c)
	}
}

func TestCorner(t *testing.T) {
	b := UniformBounds(2, 3, 9)
	lo, hi := b.Corner(false), b.Corner(true)
	if lo[0] != 3 || lo[1] != 3 || hi[0] != 9 || hi[1] != 9 {
		t.Errorf("corners %v %v", lo, hi)
	}
}

func TestSize(t *testing.T) {
	if UniformBounds(2, 1, 3).Size() != 9 {
		t.Error("Size wrong for 3x3")
	}
	if UniformBounds(0, 0, 0).Size() != 1 {
		t.Error("Size of zero-dim should be 1 (the empty config)")
	}
	// Saturation for enormous spaces.
	if UniformBounds(23, 2, 14).Size() <= 0 {
		t.Error("Size overflowed")
	}
}

func TestEnumerateCountsAndOrder(t *testing.T) {
	b := UniformBounds(2, 0, 2)
	var got []string
	b.Enumerate(func(c Config) bool {
		got = append(got, c.Key())
		return true
	})
	if len(got) != 9 {
		t.Fatalf("enumerated %d configs, want 9", len(got))
	}
	if got[0] != "0,0" || got[1] != "0,1" || got[8] != "2,2" {
		t.Errorf("lexicographic order violated: %v", got)
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, k := range got {
		if seen[k] {
			t.Fatalf("duplicate %s", k)
		}
		seen[k] = true
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	b := UniformBounds(2, 0, 4)
	n := 0
	b.Enumerate(func(Config) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestBallL1MatchesBruteForce(t *testing.T) {
	b := UniformBounds(3, 0, 6)
	center := Config{3, 1, 5}
	for _, radius := range []int{0, 1, 2, 4} {
		want := map[string]bool{}
		b.Enumerate(func(c Config) bool {
			if serialL1(c, center) <= radius && !c.Equal(center) {
				want[c.Key()] = true
			}
			return true
		})
		got := map[string]bool{}
		b.BallL1(center, radius, false, func(c Config) bool {
			if got[c.Key()] {
				t.Fatalf("BallL1 visited %s twice", c.Key())
			}
			got[c.Key()] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("radius %d: got %d points, want %d", radius, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("radius %d: missing %s", radius, k)
			}
		}
	}
}

func TestBallL1IncludeCenter(t *testing.T) {
	b := UniformBounds(2, 0, 4)
	center := Config{2, 2}
	n := 0
	sawCenter := false
	b.BallL1(center, 1, true, func(c Config) bool {
		n++
		if c.Equal(center) {
			sawCenter = true
		}
		return true
	})
	if !sawCenter {
		t.Error("center missing with includeCenter")
	}
	if n != 5 {
		t.Errorf("ball of radius 1 in 2D has %d points, want 5", n)
	}
}

func TestBallL1EarlyStop(t *testing.T) {
	b := UniformBounds(2, 0, 9)
	n := 0
	b.BallL1(Config{5, 5}, 3, false, func(Config) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestPropertyBallWithinRadiusAndBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nv := 1 + r.Intn(4)
		b := UniformBounds(nv, 0, 8)
		center := make(Config, nv)
		for i := range center {
			center[i] = r.IntRange(0, 8)
		}
		radius := r.Intn(5)
		ok := true
		b.BallL1(center, radius, false, func(c Config) bool {
			if serialL1(c, center) > radius || !b.Contains(c) || c.Equal(center) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEnumerateVisitsSizePoints(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nv := 1 + r.Intn(3)
		lo := r.IntRange(-3, 3)
		hi := lo + r.Intn(4)
		b := UniformBounds(nv, lo, hi)
		n := 0
		b.Enumerate(func(Config) bool { n++; return true })
		return n == b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
