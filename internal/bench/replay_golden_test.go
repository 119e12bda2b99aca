package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/evaluator"
)

// goldenReplayRowsPath pins every field of every Table I replay row of the
// four signal-processing benchmarks at Small, in the paper's protocol and
// in the live one, with floats as bit patterns. TestTable1Golden prints ε
// to two decimals, so a change to the neighbour search or the replay
// support that moves ε by an ulp passes there; it cannot pass here.
const goldenReplayRowsPath = "testdata/replay_rows_small.golden"

// hexBits renders a float64 as its IEEE-754 bit pattern.
func hexBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// renderReplayRow writes one row with every ReplayRow field.
func renderReplayRow(b *strings.Builder, name string, mode evaluator.ReplayMode, r evaluator.ReplayRow) {
	fmt.Fprintf(b, "%s %s d=%s n=%d interp=%d sim=%d p=%s j=%s max=%s mu=%s inf=%d kind=%s dec=%d fail=%d\n",
		name, mode, hexBits(r.D), r.N, r.NInterp, r.NSim,
		hexBits(r.Percent), hexBits(r.MeanNeigh), hexBits(r.MaxEps), hexBits(r.MeanEps),
		r.EpsInfCount, r.ErrKind, r.Decisions, r.KrigFailures)
}

// TestReplayRowsGolden records fir, iir, fft and hevc at Small with seed 1
// and replays each trajectory at the default distances in ModePaper and
// ModeLive, comparing every row field bit for bit with the committed
// golden. Regenerate with
//
//	go test ./internal/bench -run TestReplayRowsGolden -update
func TestReplayRowsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("hevc recording is slow")
	}
	var b strings.Builder
	for _, name := range []string{"fir", "iir", "fft", "hevc"} {
		sp, err := SpecByName(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := sp.Record(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []evaluator.ReplayMode{evaluator.ModePaper, evaluator.ModeLive} {
			res, err := ReplayTrace(sp, trace, Table1Options{Seed: 1, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				renderReplayRow(&b, name, mode, row)
			}
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenReplayRowsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenReplayRowsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("replay rows drifted from %s\ngot:\n%s\nwant:\n%s", goldenReplayRowsPath, got, want)
	}
}
