#!/usr/bin/env bash
# Continuous-integration checks. Stages, in order:
#  - default build + ctest;
#  - the four examples end to end (profile_and_deploy writes its
#    artifacts into a temporary directory removed on exit);
#  - the snip CLI end to end in a temporary directory: record,
#    select --out, pack, verify, inspect, and a fleet publish / diff /
#    apply round trip whose applied package must equal the packed one
#    byte for byte; select and inspect must list the same selected
#    fields for one profile; verify must reject a truncated package
#    (exit 1);
#  - bench goldens: the stdout and --csv series of the 14 paper
#    benches at --quick (fig09 and fig11 also at --threads 4) are
#    diffed byte for byte against tests/golden/
#    (tools/bench_goldens.sh);
#  - micro_train Shrink smoke, run twice: the selection and packed-model
#    digests must agree across runs and with their pinned values, and
#    the binary exits non-zero on a broken determinism contract;
#  - out-of-core micro_train: the production Shrink (buildSnipModel over
#    the mmap'd SNCT view) on 2M synthetic rows at two block
#    geometries; both packed models must carry the pinned CRC, and the
#    stage reports each run's wall time and peak RSS;
#  - fig11 --obs-json: the export parses and carries the hit-rate,
#    erroneous-field-rate and per-Shrink-phase timing signals;
#  - fleet_sim --quick epoch push: the delta payload undercuts the full
#    package, aggregateUploads (parallel decode + serial merge) is
#    bitwise-identical to the serial chain, and the per-cohort
#    staleness report is sane;
#  - asan/ubsan build + ctest, then fleet_sim --quick under asan (its
#    counting allocator replaces every operator new/delete form);
#  - tsan smokes of the shared-const concurrency contracts: concurrent
#    lookups through the full-key index of one const FrozenTable (a
#    deployed zero-copy view and a freeze()d arena), parallel sessions
#    vs serial, parallel PFI on one const TablePredictor (also with
#    its tasks filling and re-reading one selection's PfiStore),
#    EmpiricalCdf reads, micro_train itself and the parallel-decode
#    fleet aggregation;
#  - task pool: the whole parallel suite on an 8-way pool under tsan,
#    and at most threads - 1 workers ever spawned across fig12
#    epochs;
#  - corruption fuzz under asan: the OTA model codec, the frozen SNPF
#    arena, SNCT training files, and SNPD patches must
#    reject corrupt bytes cleanly (no crash, no sanitizer report), an
#    unpacked model must outlive the caller's package buffer, the
#    indexed probe must match the reference scan on crafted arenas,
#    and MemoTable's flat store must match the map-store oracle and
#    its pinned freeze() digests;
#  - the loop benchmark's own self-test.
#
# Every --gtest_filter stage goes through run_filtered, which also
# fails when the filter selects no test: GoogleTest 1.12 has no
# --gtest_fail_if_no_test_selected, so a filter naming a deleted or
# renamed test would otherwise pass silently.
#
# Usage: tools/ci.sh [jobs]   (jobs defaults to nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Run a gtest binary with its arguments; fail if it fails or if its
# filter selected no test ("[==========] 0 tests from ...").
run_filtered() {
    local log
    log=$(mktemp)
    if ! "$@" 2>&1 | tee "$log"; then
        rm -f "$log"
        return 1
    fi
    if ! grep -qE '^\[==========\] [1-9][0-9]* tests? from .* ran\.' \
            "$log"; then
        echo "ci: no test selected by: $*" >&2
        rm -f "$log"
        return 1
    fi
    rm -f "$log"
}

echo "==> default build + ctest"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

echo "==> examples (all four, end to end)"
EXAMPLES_OUT=$(mktemp -d)
trap 'rm -rf "$EXAMPLES_OUT"' EXIT
./build/examples/quickstart >/dev/null
./build/examples/ar_game_session >/dev/null
./build/examples/continuous_learning_demo >/dev/null
./build/examples/profile_and_deploy candy_crush "$EXAMPLES_OUT" >/dev/null

echo "==> snip CLI (record -> select -> pack -> verify -> fleet round trip)"
CLI_OUT=$(mktemp -d)
trap 'rm -rf "$EXAMPLES_OUT" "$CLI_OUT"' EXIT
SNIP=./build/src/cli/snip
$SNIP record --game colorphun --seconds 20 --out "$CLI_OUT/ev.bin" \
    >/dev/null
$SNIP select --in "$CLI_OUT/ev.bin" --out "$CLI_OUT/tr.snct" >/dev/null
$SNIP pack --game colorphun --profile-seconds 10 \
    --out "$CLI_OUT/base.snpm" >/dev/null
$SNIP pack --game colorphun --profile-seconds 20 \
    --out "$CLI_OUT/m.snpm" >/dev/null
$SNIP verify --in "$CLI_OUT/m.snpm" >/dev/null
$SNIP inspect --in "$CLI_OUT/m.snpm" --verbose >"$CLI_OUT/inspect.txt"
# The 20 s recording and the --profile-seconds 20 package share the
# default seed, so select's Shrink and the package's arena hold the
# same selection: their indented field-name lines must agree.
$SNIP select --in "$CLI_OUT/ev.bin" --verbose >"$CLI_OUT/select.txt"
grep '^      ' "$CLI_OUT/select.txt" >"$CLI_OUT/select.fields"
grep '^      ' "$CLI_OUT/inspect.txt" >"$CLI_OUT/inspect.fields"
diff "$CLI_OUT/select.fields" "$CLI_OUT/inspect.fields"
$SNIP fleet publish --registry "$CLI_OUT/reg" --in "$CLI_OUT/base.snpm" \
    >/dev/null
$SNIP fleet publish --registry "$CLI_OUT/reg" --in "$CLI_OUT/m.snpm" \
    >/dev/null
$SNIP fleet diff --from "$CLI_OUT/base.snpm" --to "$CLI_OUT/m.snpm" \
    --out "$CLI_OUT/p.snpd" >/dev/null
$SNIP fleet apply --base "$CLI_OUT/base.snpm" --patch "$CLI_OUT/p.snpd" \
    --out "$CLI_OUT/got.snpm" >/dev/null
cmp "$CLI_OUT/got.snpm" "$CLI_OUT/m.snpm"
head -c 100 "$CLI_OUT/m.snpm" >"$CLI_OUT/trunc.snpm"
status=0
$SNIP verify --in "$CLI_OUT/trunc.snpm" >/dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "snip verify: truncated package exited $status, want 1" >&2
    exit 1
fi

echo "==> bench goldens (paper benches at --quick, byte for byte)"
tools/bench_goldens.sh build

echo "==> micro_train smoke (Shrink-phase contracts, two runs)"
./build/bench/micro_train --quick --out build/micro_train_a.json \
    >/dev/null
./build/bench/micro_train --quick --out build/micro_train_b.json \
    >/dev/null
DIGESTS_A=$(grep -o '"digest": "[^"]*"' build/micro_train_a.json)
DIGESTS_B=$(grep -o '"digest": "[^"]*"' build/micro_train_b.json)
if [ -z "$DIGESTS_A" ] || [ "$DIGESTS_A" != "$DIGESTS_B" ]; then
    echo "micro_train: selection/model digests differ across runs" >&2
    exit 1
fi
# Pinned values, not just run-to-run agreement: a different selection
# digest or packed-model CRC is a behaviour change of Shrink or the
# codec, and must come with a deliberate update here.
python3 - <<'EOF'
import json, sys

with open('build/micro_train_a.json') as f:
    d = json.load(f)
for section, want in (('selection', 'e73ddc04'),
                      ('model_codec', 'b44656e6')):
    got = d.get(section, {}).get('digest')
    if got != want:
        sys.exit(f'micro_train: {section} digest {got!r}, pinned '
                 f'{want!r}')
EOF

echo "==> out-of-core micro_train (production Shrink, block-size invariance)"
# 2M synthetic rows through buildSnipModel on the mmap'd SNCT view at
# two block geometries: both packed models must carry the pinned CRC
# (so a rewrite of the prefill or the table store cannot drift
# unnoticed). Wall time and peak RSS are reported, not capped (see
# ROADMAP: the production out-of-core Shrink holds O(rows) heap).
./build/bench/micro_train --quick --rows 2000000 --block-rows 4096 \
    --rss-budget-mb 64 --out build/micro_train_oo_a.json >/dev/null
./build/bench/micro_train --quick --rows 2000000 --block-rows 512 \
    --rss-budget-mb 64 --out build/micro_train_oo_b.json >/dev/null
python3 - <<'EOF'
import json, sys

runs = {}
for geom in ('a', 'b'):
    with open(f'build/micro_train_oo_{geom}.json') as f:
        d = json.load(f)
    oo = d['out_of_core']
    runs[geom] = oo['package_crc']
    print(f"out-of-core block_rows={oo['block_rows']}: "
          f"wall_s={oo['wall_s']:.1f} "
          f"peak_rss_mb={d['peak_rss_bytes'] / 2**20:.0f} "
          f"package_bytes={oo['package_bytes']} "
          f"entries={oo['entries']} crc={oo['package_crc']}")
if runs['a'] != runs['b']:
    sys.exit(f"micro_train: out-of-core packages differ across block "
             f"sizes: {runs!r}")
if runs['a'] != '23095110':
    sys.exit(f"micro_train: out-of-core package crc {runs['a']!r}, "
             f"pinned '23095110'")
EOF

echo "==> obs telemetry export smoke (fig11 --obs-json)"
./build/bench/fig11_schemes --quick --obs-json build/fig11_obs.json \
    >/dev/null
python3 - <<'EOF'
import json, sys

with open('build/fig11_obs.json') as f:
    d = json.load(f)

missing = []
for section, key in [
    ('gauges', 'session.hit_rate'),
    ('gauges', 'session.error_field_rate'),
    ('counters', 'lookup.hits'),
    ('counters', 'lookup.misses'),
    ('counters', 'lookup.bytes'),
    ('counters', 'decide.err.shortcircuits'),
    ('timers', 'span.shrink'),
    ('timers', 'span.shrink.select'),
    ('timers', 'span.shrink.select.train'),
    ('timers', 'span.shrink.select.pfi'),
    ('timers', 'span.shrink.dataset'),
    ('timers', 'span.shrink.prefill'),
]:
    if key not in d.get(section, {}):
        missing.append(f'{section}/{key}')
if missing:
    sys.exit('fig11 --obs-json missing: ' + ', '.join(missing))

rate = d['gauges']['session.hit_rate']
if not 0.0 <= rate <= 1.0:
    sys.exit(f'session.hit_rate out of range: {rate}')
if d['timers']['span.shrink']['sum_s'] <= 0.0:
    sys.exit('span.shrink recorded no wall time')
EOF

echo "==> fleet OTA smoke (fleet_sim --quick epoch push)"
./build/bench/fleet_sim --quick --out build/fleet_sim_ci.json \
    >/dev/null
python3 - <<'EOF'
import json, sys

with open('build/fleet_sim_ci.json') as f:
    d = json.load(f)

missing = [k for k in (
    'ota_full_bytes', 'ota_delta_bytes', 'delta_ratio',
    'delta_beats_full', 'fallbacks', 'staleness_skew',
    'aggregate_identical', 'agg_serial_s', 'agg_parallel_s',
    'cohorts') if k not in d]
if missing:
    sys.exit('fleet_sim json missing: ' + ', '.join(missing))
if not d['delta_beats_full']:
    sys.exit('fleet_sim: delta OTA payload does not beat the '
             'full-package baseline')
if not d['aggregate_identical']:
    sys.exit('fleet_sim: aggregateUploads diverged from the serial '
             'chain')
for c in d['cohorts']:
    for k in ('name', 'devices', 'versions_behind', 'patch_bytes',
              'full_bytes', 'delta_bytes', 'used_delta',
              'stale_hit_rate'):
        if k not in c:
            sys.exit(f'fleet_sim cohort missing field: {k}')
    if not 0.0 <= c['stale_hit_rate'] <= 1.0:
        sys.exit('fleet_sim: stale_hit_rate out of range: %r'
                 % c['stale_hit_rate'])
EOF

echo "==> asan/ubsan build + ctest"
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$JOBS"
ctest --preset asan-ubsan -j "$JOBS"

echo "==> fleet_sim under asan (replaced operator new/delete pairs)"
# fleet_sim replaces the global allocator to count allocations; every
# new/delete form must be replaced together, or asan reports an
# alloc-dealloc mismatch.
./build-asan/bench/fleet_sim --quick \
    --out build-asan/fleet_sim_asan.json >/dev/null

echo "==> tsan smoke (concurrent lookups + parallel sessions + parallel Shrink phase)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS" --target parallel_test \
    --target ml_test --target micro_train --target fleet_test
TSAN_OPTIONS="halt_on_error=1" run_filtered \
    ./build-tsan/tests/ml_test \
    --gtest_filter='ChunkedDatasetTest.ThreadInvarianceOnSharedView:PfiTest.KeyedPfiMatchesReference:PfiTest.StoreReuseAcrossRefreshesMatchesReference'
TSAN_OPTIONS="halt_on_error=1" run_filtered \
    ./build-tsan/tests/parallel_test \
    --gtest_filter='ParallelRunnerTest.ConcurrentLookupsOnSharedConstTable:ParallelRunnerTest.ConcurrentLookupsOnSharedConstFrozenTable:ParallelRunnerTest.ForEachSessionsMatchSerialBitwise:ShrinkParallelTest.*'
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/bench/micro_train --quick --profile-s 10 \
    --threads 4 --out build-tsan/micro_train_tsan.json >/dev/null

echo "==> tsan aggregation equivalence (parallel decode + serial merge)"
TSAN_OPTIONS="halt_on_error=1" run_filtered \
    ./build-tsan/tests/fleet_test \
    --gtest_filter='FleetAggregateTest.*'

echo "==> task pool (tsan parallel_test @ 8 threads + steady-state spawn check)"
# The whole parallel suite — pool internals, nested submission,
# concurrent external callers, parallel sessions — racing on an
# 8-way shared pool under tsan.
SNIP_THREADS=8 TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/parallel_test
# Zero steady-state respawns: across a 5-epoch continuous-learning
# run every epoch's Shrink/PFI/session parallelism must reuse the
# same resident workers, so at --threads 4 the lifetime spawn total
# cannot exceed the 3 helpers one loop needs.
./build/bench/fig12_continuous_learning --quick --epochs 5 \
    --threads 4 --obs-json build/fig12_obs_pool.json >/dev/null
python3 - <<'EOF'
import json, sys

with open('build/fig12_obs_pool.json') as f:
    d = json.load(f)

g = d.get('gauges', {})
for k in ('pool.threads_spawned', 'pool.tasks'):
    if k not in g:
        sys.exit('fig12 --obs-json missing gauge: ' + k)
spawned = g['pool.threads_spawned']
if spawned > 3:
    sys.exit('pool: threads_spawned %r > 3 at --threads 4 — workers '
             'were respawned across ContinuousLearner epochs'
             % spawned)
if g['pool.tasks'] <= 0:
    sys.exit('pool: no tasks executed despite --threads 4')
EOF

echo "==> corruption fuzz smoke (OTA model codec + SNPF arena, asan)"
SNIP_FUZZ_ITERS=512 run_filtered \
    ./build-asan/tests/model_codec_test \
    --gtest_filter='ModelCodec*Fuzz*:ModelCodecTest.UnpackedModelOwnsItsBytes'
SNIP_FUZZ_ITERS=512 run_filtered \
    ./build-asan/tests/core_test \
    --gtest_filter='*FrozenArenaCorruptionFuzz*:FrozenTableTest.IndexedProbeMatchesReferenceScan:MemoTableTest.FlatStoreMatchesMapReference:MemoTableTest.FreezeGoldenDigest'
run_filtered ./build-asan/tests/trace_test \
    --gtest_filter='ColumnarLogTest.MmapCorruptionRejectedCleanly:ColumnarLogTest.CorruptionRejectedOrSafe:ColumnarLogTest.OtherVersionsRejected'
SNIP_FUZZ_ITERS=256 run_filtered \
    ./build-asan/tests/trace_test \
    --gtest_filter='TrainingSectionTest.CorruptionFuzzRejectedOrSafe:TrainingSectionTest.LabelColumnBitFlipRejected:TrainingWriterTest.RejectsMisuseAndUnfinishedFiles'
run_filtered ./build-asan/tests/ml_test \
    --gtest_filter='ChunkedDatasetTest.BlockSizeInvarianceFuzz:ChunkedDatasetTest.RejectsForeignSchema'

echo "==> SNPD patch corruption fuzz (delta OTA receive path, asan)"
SNIP_FUZZ_ITERS=512 run_filtered \
    ./build-asan/tests/fleet_test \
    --gtest_filter='Fleet*Fuzz*'

echo "==> loop benchmark self-test (loopbench/run.py --self-test)"
# A tiny instance of every loopbench workload: result format, output
# checks, and simulated metrics that are a pure function of the seed.
python3 loopbench/run.py --self-test

echo "==> all green"
