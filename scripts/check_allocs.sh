#!/bin/sh
# Allocation gate: runs the TestAllocs* tests — the testing.AllocsPerRun
# contracts of the query fast paths — WITHOUT the race detector (race
# instrumentation allocates on its own, so the same tests skip themselves
# under -race; see internal/raceflag).
#
# Gates enforced:
#   - linalg:    SolveInto on warm factors            (0 allocs)
#   - kriging:   cache-hit Ordinary/Simple Predict    (0 allocs)
#                cache-hit Ordinary PredictVar        (0 allocs)
#                warm Ordinary/Simple PredictBatch    (0 allocs, any K)
#                IDW/Nearest/Capped baselines         (0 allocs)
#   - store:     warm NeighborsInto / NearestKInto    (0 allocs)
#                durable AddBatch over in-memory      (O(1) per batch)
#   - store/wal: warm Log.Append group commit         (O(1) per batch)
#   - evaluator: exact-hit Evaluate                   (0 allocs)
#                steady-state interpolated Evaluate   (<= 1 alloc)
#   - fixed:     Format.Quantize                      (0 allocs)
#   - hevc:      luma/chroma NoisePower               (<= 1 alloc, any block count)
#   - nn:        SensitivityBenchmark.Evaluate        (<= 1 extra alloc per image)
#
# Run from the repository root:  sh scripts/check_allocs.sh
set -eu

go test -count=1 -run 'TestAllocs|TestSolveIntoAllocs' \
    ./internal/linalg ./internal/kriging ./internal/store \
    ./internal/store/wal ./internal/evaluator \
    ./internal/fixed ./internal/hevc ./internal/nn
echo "allocation gates OK"
