package bench

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files instead of comparing against them")

// goldenTable1Path pins the rendered Table I of the four signal-processing
// benchmarks at Small. SqueezeNet is left out: recording it takes about
// half a minute, TestSqueezeNetReplaySmoke keeps it wired, and
// TestSqueezeNetPin in internal/nn pins its simulator.
const goldenTable1Path = "testdata/table1_small.golden"

// TestTable1Golden records fir, iir, fft and hevc at Small with seed 1,
// replays them at the default distances and compares the rendered table
// byte for byte with the committed golden. Any change to a simulator, the
// store's neighbour search, the kriging solve or the replay protocol that
// moves a single printed digit fails here. Regenerate with
//
//	go test ./internal/bench -run TestTable1Golden -update
func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("hevc recording is slow")
	}
	var results []*BenchmarkResult
	for _, name := range []string{"fir", "iir", "fft", "hevc"} {
		sp, err := SpecByName(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunBenchmark(context.Background(), sp, Table1Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	got := RenderTable1(results)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTable1Path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTable1Path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenTable1Path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("Table I drifted from %s\ngot:\n%s\nwant:\n%s", goldenTable1Path, got, want)
	}
}
