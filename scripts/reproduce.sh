#!/usr/bin/env bash
# One-shot reproduction: configure, build, run the test suites (fast tier-1
# first, then the corpus-wide full suite), regenerate every table/figure of
# the paper, prove chaos containment, and — when the toolchain supports it —
# re-run the concurrency tests under ThreadSanitizer and the fault-containment
# tests under AddressSanitizer.
#
#   scripts/reproduce.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -G Ninja -S "$repo_root"
cmake --build "$build_dir"

# Tier-1: the fast unit suite. Fail here and stop before the expensive parts.
ctest --test-dir "$build_dir" -L tier1 --output-on-failure

# Full suite (tier-1 again plus the corpus-wide end-to-end tests).
ctest --test-dir "$build_dir" 2>&1 | tee "$repo_root/test_output.txt"

{
  for bench in "$build_dir"/bench/*; do
    if [ -f "$bench" ] && [ -x "$bench" ]; then
      echo "##### $(basename "$bench")"
      if [ "$(basename "$bench")" = "stress_campaign" ]; then
        # Regenerates the committed cold/warm cache record (docs/CACHING.md)
        # and exits non-zero if the >=5x warm speedup or byte-identity fails.
        "$bench" "$repo_root/BENCH_cache.json" "$build_dir/stress_cache" 10
      elif [ "$(basename "$bench")" = "micro_repair" ]; then
        # Regenerates the committed repair-loop cost record (docs/REPAIR.md)
        # and exits non-zero if a sliced validation report ever differs from
        # its cold reference or never hits the unpatched cache slice.
        "$bench" "$repo_root/BENCH_repair.json" "$build_dir/micro_repair_cache"
      else
        "$bench"
      fi
      echo
    fi
  done
} 2>&1 | tee "$repo_root/bench_output.txt"

# Machine-readable interpreter-throughput record (docs/PERFORMANCE.md): the
# interpreter and campaign benchmarks with their steps/sec and runs/sec
# counters and the front end's BM_ParseApp bytes/sec, plus the
# hardware_concurrency context value the multi-worker throughput figures
# depend on.
"$build_dir/bench/micro_substrate" \
  --benchmark_filter='Interpreter|CleanTestSuite|CampaignRunsPerSecond|ParseApp' \
  --benchmark_min_time=0.3 \
  --benchmark_out="$repo_root/BENCH_interp.json" \
  --benchmark_out_format=json >/dev/null
echo "interpreter bench: BENCH_interp.json"

# Archive an instrumented campaign: the Chrome trace, metrics JSON, retry
# journal, and the self-contained HTML retry dashboard for one corpus app
# (docs/OBSERVABILITY.md). The journal must be byte-identical at any worker
# count; the cli_report_smoke ctest checks that on every run, and the
# obs_journal_test gtest pins it at 1/2/4/8 workers.
corpus_dir="$build_dir/reproduce_corpus"
rm -rf "$corpus_dir"
"$build_dir/tools/wasabi" dump-corpus "$corpus_dir" >/dev/null
"$build_dir/tools/wasabi" test "$corpus_dir/mapred" --jobs 4 \
  --trace-out="$repo_root/campaign_trace.json" \
  --metrics-out="$repo_root/campaign_metrics.json" \
  --journal-out="$repo_root/campaign_journal.json" \
  --report-out="$repo_root/campaign_report.html" >/dev/null

# Chaos-containment pass (docs/ROBUSTNESS.md): the same campaign with the
# self-chaos harness killing ~10% of run attempts must exit 0 and produce
# byte-identical output at every worker count.
chaos_reference=""
for jobs in 1 2 4 8; do
  chaos_out="$("$build_dir/tools/wasabi" analyze "$corpus_dir/mapred" --json \
    --chaos 42:0.1 --jobs "$jobs")"
  if [ -z "$chaos_reference" ]; then
    chaos_reference="$chaos_out"
  elif [ "$chaos_out" != "$chaos_reference" ]; then
    echo "FATAL: chaos campaign output differs at --jobs $jobs" >&2
    exit 1
  fi
done
echo "chaos containment: byte-identical at 1/2/4/8 workers"

# Warm-cache differential (docs/CACHING.md): a --cache-dir campaign — cold
# populate, then a warm replay — must match the cache-off output byte for
# byte at every worker count. Worker count is deliberately not part of any
# cache key, so the store populated at --jobs 1 serves every other count.
cache_dir="$build_dir/reproduce_cache"
rm -rf "$cache_dir"
for jobs in 1 2 4 8; do
  nocache_out="$("$build_dir/tools/wasabi" test "$corpus_dir/mapred" --json \
    --jobs "$jobs")"
  cached_out="$("$build_dir/tools/wasabi" test "$corpus_dir/mapred" --json \
    --jobs "$jobs" --cache-dir "$cache_dir")"
  if [ "$cached_out" != "$nocache_out" ]; then
    echo "FATAL: --cache-dir output differs from cache-off at --jobs $jobs" >&2
    exit 1
  fi
done
rm -rf "$cache_dir"
echo "warm cache: byte-identical to cache-off at 1/2/4/8 workers"

# ThreadSanitizer pass over the campaign-executor concurrency tests (label
# "exec") plus the interpreter-overhaul golden-equivalence/resolver tests
# (label "perf", which re-prove byte-identical campaign output with the
# runner's per-worker warm interpreters under TSan) and the flakiness-prober/
# replay suites (labels "flaky"/"replay", whose probe reruns run on the
# campaign runner's warm interpreters; see docs/FLAKINESS.md) and the retry-journal
# suite (label "obsjournal", whose per-thread journal buffers are written by
# 8 campaign workers and merged at collect time; see docs/OBSERVABILITY.md)
# and the bytecode-VM suites (label "vm", whose compiled chunks are shared
# read-only across campaign workers; see docs/PERFORMANCE.md "Bytecode VM")
# and the repair suites (label "repair", whose validation re-campaigns run the
# full parallel pipeline once per patch; see docs/REPAIR.md), in a separate
# build tree so the main artifacts stay uninstrumented.
# Skipped quietly when the compiler can't link TSan (e.g. musl toolchains).
if echo 'int main(){return 0;}' |
   c++ -x c++ -fsanitize=thread -o /tmp/wasabi_tsan_probe - 2>/dev/null; then
  rm -f /tmp/wasabi_tsan_probe
  cmake -B "$build_dir-tsan" -G Ninja -S "$repo_root" -DWASABI_TSAN=ON
  cmake --build "$build_dir-tsan"
  ctest --test-dir "$build_dir-tsan" -L 'exec|perf|flaky|replay|obsjournal|storm|vm|repair' --output-on-failure \
    2>&1 | tee "$repo_root/tsan_output.txt"
else
  echo "note: compiler does not support -fsanitize=thread; skipping TSan pass"
fi

# AddressSanitizer + UndefinedBehaviorSanitizer pass over the whole suite, in
# a separate build tree (every UBSan report aborts its test, and LeakSanitizer
# checks every test binary at exit). The lifetime-sensitive surfaces it covers
# include exception capture and quarantine bookkeeping (docs/ROBUSTNESS.md),
# the interner's string_view tokens and the runner's frame reuse, the grammar
# and codec fuzzers, cache/record parsing of hostile bytes (docs/CACHING.md,
# docs/FLAKINESS.md), the bytecode executor's pooled operand stacks
# (docs/PERFORMANCE.md), and the repair loop's re-parsed patched sources
# (docs/REPAIR.md). Same probe-then-skip structure as the TSan pass above.
if echo 'int main(){return 0;}' |
   c++ -x c++ -fsanitize=address,undefined -o /tmp/wasabi_asan_probe - 2>/dev/null; then
  rm -f /tmp/wasabi_asan_probe
  cmake -B "$build_dir-asan" -G Ninja -S "$repo_root" -DWASABI_ASAN=ON -DWASABI_UBSAN=ON
  cmake --build "$build_dir-asan"
  ctest --test-dir "$build_dir-asan" --output-on-failure \
    2>&1 | tee "$repo_root/asan_output.txt"
else
  echo "note: compiler does not support -fsanitize=address,undefined; skipping ASan+UBSan pass"
fi

echo
echo "Done. Test results: test_output.txt; table/figure outputs: bench_output.txt;"
echo "campaign trace/metrics: campaign_trace.json, campaign_metrics.json;"
echo "retry journal + dashboard: campaign_journal.json, campaign_report.html;"
echo "interpreter throughput record: BENCH_interp.json;"
echo "cache cold/warm record: BENCH_cache.json;"
echo "repair-loop cost record: BENCH_repair.json"
