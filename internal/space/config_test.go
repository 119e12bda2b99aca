package space

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCloneIndependence(t *testing.T) {
	c := Config{1, 2, 3}
	d := c.Clone()
	d[0] = 99
	if c[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	if !(Config{1, 2}).Equal(Config{1, 2}) {
		t.Error("equal configs not equal")
	}
	if (Config{1, 2}).Equal(Config{1, 3}) {
		t.Error("different configs equal")
	}
	if (Config{1, 2}).Equal(Config{1, 2, 3}) {
		t.Error("different lengths equal")
	}
}

func TestKeyString(t *testing.T) {
	c := Config{4, -1, 7}
	if c.Key() != "4,-1,7" {
		t.Errorf("Key = %q", c.Key())
	}
	if c.String() != "(4,-1,7)" {
		t.Errorf("String = %q", c.String())
	}
}

func TestKeyInjectiveOnExamples(t *testing.T) {
	// Keys must distinguish (1, 23) from (12, 3).
	if (Config{1, 23}).Key() == (Config{12, 3}).Key() {
		t.Fatal("Key collision")
	}
}

func TestFloats(t *testing.T) {
	f := (Config{2, 5}).Floats()
	if f[0] != 2.0 || f[1] != 5.0 {
		t.Errorf("Floats = %v", f)
	}
}

func TestWith(t *testing.T) {
	c := Config{1, 2, 3}
	d := c.With(1, 9)
	if d[1] != 9 || c[1] != 2 {
		t.Errorf("With mutated original or missed: c=%v d=%v", c, d)
	}
}

func TestL1Known(t *testing.T) {
	if fullDistance(MetricL1, Config{1, 2, 3}, Config{3, 2, 0}) != 5 {
		t.Error("L1 wrong")
	}
	if fullDistance(MetricL1, Config{}, Config{}) != 0 {
		t.Error("L1 of empty configs should be 0")
	}
}

func TestL2Known(t *testing.T) {
	if d := fullDistance(MetricL2, Config{0, 0}, Config{3, 4}); d != 5 {
		t.Errorf("L2 = %v, want 5", d)
	}
}

func TestLInfKnown(t *testing.T) {
	if fullDistance(MetricLInf, Config{1, 10}, Config{3, 2}) != 8 {
		t.Error("LInf wrong")
	}
}

// TestDistancePanicsOnDimMismatch pins the dimension check of the
// bounded kernel: it panics whatever d is, including a d that admits
// nothing.
func TestDistancePanicsOnDimMismatch(t *testing.T) {
	for _, m := range []Metric{MetricL1, MetricL2, MetricLInf} {
		for _, d := range []float64{5, 0, -1, math.NaN(), math.Inf(1)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s d=%v: dimension mismatch did not panic", m, d)
					}
				}()
				m.Within(Config{1}, Config{1, 2}, d)
			}()
		}
	}
}

func TestMetricString(t *testing.T) {
	if MetricL1.String() != "L1" || MetricL2.String() != "L2" || MetricLInf.String() != "Linf" {
		t.Error("metric names wrong")
	}
}

func TestMetricDistanceAgreesWithFunctions(t *testing.T) {
	a, b := Config{1, 5, 2}, Config{4, 5, 0}
	for _, m := range []Metric{MetricL1, MetricL2, MetricLInf} {
		if got, want := fullDistance(m, a, b), serialDistance(m, a, b); got != want {
			t.Errorf("%s: Within = %v, serial reference %v", m, got, want)
		}
	}
}

func TestDistanceFloatsAgreesWithInts(t *testing.T) {
	a, b := Config{1, 5, 2}, Config{4, 5, 0}
	for _, m := range []Metric{MetricL1, MetricL2, MetricLInf} {
		if fullDistance(m, a, b) != m.DistanceFloats(a.Floats(), b.Floats()) {
			t.Errorf("%s float/int distance mismatch", m)
		}
	}
}

func randConfig(r *rng.Stream, n int) Config {
	c := make(Config, n)
	for i := range c {
		c[i] = r.IntRange(-20, 20)
	}
	return c
}

func TestPropertyMetricAxioms(t *testing.T) {
	// Symmetry, identity and the triangle inequality for all metrics.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		a, b, c := randConfig(r, n), randConfig(r, n), randConfig(r, n)
		for _, m := range []Metric{MetricL1, MetricL2, MetricLInf} {
			dab, dba := fullDistance(m, a, b), fullDistance(m, b, a)
			if dab != dba {
				return false
			}
			if fullDistance(m, a, a) != 0 {
				return false
			}
			if fullDistance(m, a, c) > fullDistance(m, a, b)+fullDistance(m, b, c)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormOrdering(t *testing.T) {
	// LInf <= L2 <= L1 on integer lattices.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		a, b := randConfig(r, n), randConfig(r, n)
		linf := fullDistance(MetricLInf, a, b)
		l2 := fullDistance(MetricL2, a, b)
		l1 := fullDistance(MetricL1, a, b)
		return linf <= l2+1e-12 && l2 <= l1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
