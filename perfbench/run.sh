#!/usr/bin/env bash
# Builds the `wasabi` CLI and the benchmark harness from this checkout's
# sources (into .bench_build/), then runs the harness.
#
#   bash perfbench/run.sh --workload detect|repair|edit-rescan --seed N \
#                         --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test        # build and run the harness tests
#
# Build output goes to .bench_build/build.log; on a failed build the tail of
# the log goes to stderr and the script exits 1 without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."

build=.bench_build
mkdir -p "$build"
jobs=$(nproc 2>/dev/null || echo 1)
generator=()
if [[ ! -f "$build/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi

targets=(wasabi_cli wasabi_bench)
if [[ "${1:-}" == "--self-test" ]]; then
  targets=(perfbench_tests)
fi

if ! { cmake -S perfbench -B "$build" "${generator[@]}" &&
       cmake --build "$build" --target "${targets[@]}" -j "$jobs"; } >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "perfbench: build failed (full log: $build/build.log)" >&2
  exit 1
fi

if [[ "${1:-}" == "--self-test" ]]; then
  exec "$build/perfbench_tests"
fi
commit=unknown
if [[ -e .git ]]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$build/wasabi_bench" --cli "$build/tools/wasabi" --commit "$commit" "$@"
