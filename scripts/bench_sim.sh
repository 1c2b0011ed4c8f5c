#!/usr/bin/env sh
# Regenerate BENCH_sim.json, the machine-readable trajectory of the
# simulation-substrate benchmarks: emulated MIPS, machine setup (fresh
# vs pooled 8 MiB image), live capture MIPS (recorder alone and with a
# rider), trace replay throughput, replay-fed timing-model MIPS (one- and
# two-mode banks over the ref kernel traces), the fused-vs-unfused cold
# figure matrices, the single-pass threshold sweep (grid cells/s vs
# independent per-threshold runs), the two §4.3 ablation drivers, and the
# analysis layers: VRP over the ref kernels and VRS selection over held
# ref-kernel profiles on the sweep grid.
#
#   scripts/bench_sim.sh              # default: 3 timed iterations, 3 samples
#   BENCHTIME=1x COUNT=1 scripts/bench_sim.sh # quick smoke
#
# COUNT > 1 keeps several samples per benchmark in the document; the
# benchjson -compare regression gate scores each benchmark by its best
# sample, which makes the committed baseline robust to scheduler noise.
set -e
cd "$(dirname "$0")/.."

BENCHES='BenchmarkEmuMIPS|BenchmarkMachineSetup|BenchmarkCaptureMIPS|BenchmarkTraceReplayMIPS|BenchmarkUarchReplayMIPS|BenchmarkFigure3Matrix|BenchmarkFigureFamilyMatrix|BenchmarkThresholdSweep|BenchmarkAblationOpcodeSets|BenchmarkAblationAnalysis|BenchmarkVRPAnalyze|BenchmarkVRSSelect'

# Run the benchmarks to a temp file first so a failing run aborts the
# script (POSIX sh has no pipefail) instead of overwriting the committed
# trajectory with an empty document.
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test -run '^$' -bench "$BENCHES" -benchtime "${BENCHTIME:-3x}" -count "${COUNT:-3}" . > "$out"
cat "$out" >&2
go run ./tools/benchjson < "$out" > BENCH_sim.json

echo "wrote BENCH_sim.json" >&2
