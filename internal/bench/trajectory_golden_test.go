package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/evaluator"
)

// goldenTrajectoryPath pins a hash of each recorded Small trajectory of
// the four signal-processing benchmarks: every configuration and the bit
// pattern of every λ, in recording order. Table I only prints rounded
// aggregates of a replay, so a simulator change that moves one λ by an
// ulp can slip past TestTable1Golden; it cannot slip past this pin.
const goldenTrajectoryPath = "testdata/trajectories_small.golden"

// traceDigest hashes a trajectory's configurations and λ bit patterns.
func traceDigest(trace evaluator.Trace) string {
	h := sha256.New()
	var buf [8]byte
	for _, tp := range trace {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(tp.Config)))
		h.Write(buf[:])
		for _, v := range tp.Config {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tp.Lambda))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTrajectoryGolden records fir, iir, fft and hevc at Small with seed
// 1 and compares each trajectory's length and digest with the committed
// golden. Regenerate with
//
//	go test ./internal/bench -run TestTrajectoryGolden -update
func TestTrajectoryGolden(t *testing.T) {
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
		fmt.Fprintf(&b, "%s %d %s\n", name, len(trace), traceDigest(trace))
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenTrajectoryPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenTrajectoryPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("recorded trajectories drifted from %s\ngot:\n%s\nwant:\n%s", goldenTrajectoryPath, got, want)
	}
}
