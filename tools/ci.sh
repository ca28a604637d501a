#!/usr/bin/env bash
# CI driver: build + test the default config, run the micro_train
# Shrink-phase smoke (twice — the selection/model digests must match
# across runs and their pinned values, and the binary itself exits
# non-zero on any broken determinism/zero-alloc contract), validate
# the snip::obs telemetry export (fig11 --obs-json must parse and
# carry the hit-rate / erroneous-field-rate / per-Shrink-phase-timing
# signals), run the
# out-of-core micro_train stage (2M synthetic rows trained through
# the mmap'd SNCT view under a hard RSS cap, with the forest
# fingerprint required identical across two block geometries), build +
# test the asan/ubsan config (which reruns the obs, Log2Histogram,
# and EmpiricalCdf regression tests under sanitizers), run the TSan
# smokes of the shared-const concurrency contracts (parallel session
# runner lookups + parallel training/PFI on a shared const forest +
# lazily-sorted EmpiricalCdf reads + ShardedRegistry attribution,
# including micro_train itself), run the micro_lookup hot-path smoke
# (the binary exits non-zero if any lookup thread allocated in its
# timed loop or the frozen and mutable layouts disagree on a single
# decision; the JSON is additionally checked for zero allocs_per_iter
# at every thread count of both lookup benchmarks and the batched
# lookup benchmark must be present with zero allocs), then fuzz the
# OTA model codec and the frozen "SNPF" arena with corrupt packages
# under asan (truncations and random bit flips must be rejected
# cleanly — no crashes, no sanitizer reports, including the mmap'd
# SNCT attach path), and finally replay a 10k-event stream through
# decideBatch/lookupBatch under asan asserting bitwise-identical
# decisions against the scalar path. The pipelined session runtime
# gets three stages of its own: the sequential-vs---pipeline bitwise
# equivalence replay under asan, the fig11 --pipeline --obs-json
# export check (per-stage occupancy/items/queue-depth must be
# present and consistent), and the pipeline TSan smokes. The fleet
# OTA backend gets three more: the fleet_sim --quick epoch push
# (delta payload must undercut the full baseline, sharded
# aggregation must stay bitwise-identical to serial, and the
# per-cohort staleness report must be present and sane), the SNPD
# patch corruption fuzz under asan (every real mutation of a patch
# must be rejected and the device receive path must still converge
# on the published head via full-fetch fallback), and the TSan
# sharded-merge equivalence smoke.
#
# Usage: tools/ci.sh [jobs]   (jobs defaults to nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> default build + ctest"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

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
                      ('model_codec', '7f698c15')):
    got = d.get(section, {}).get('digest')
    if got != want:
        sys.exit(f'micro_train: {section} digest {got!r}, pinned '
                 f'{want!r}')
EOF

echo "==> out-of-core micro_train (bounded RSS + block-size invariance)"
# 2M synthetic rows trained through the mmap'd SNCT view under a hard
# in-binary RSS cap (micro_train exits non-zero if VmHWM exceeds it),
# at two block geometries — the forest fingerprints must agree.
./build/bench/micro_train --quick --rows 2000000 --block-rows 4096 \
    --rss-budget-mb 64 --rss-cap-mb 512 \
    --out build/micro_train_oo_a.json >/dev/null
./build/bench/micro_train --quick --rows 2000000 --block-rows 512 \
    --rss-budget-mb 64 --rss-cap-mb 512 \
    --out build/micro_train_oo_b.json >/dev/null
OO_A=$(grep -o '"fingerprint": "[^"]*"' build/micro_train_oo_a.json)
OO_B=$(grep -o '"fingerprint": "[^"]*"' build/micro_train_oo_b.json)
if [ -z "$OO_A" ] || [ "$OO_A" != "$OO_B" ]; then
    echo "micro_train: out-of-core fingerprints differ across" \
         "block sizes" >&2
    exit 1
fi

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

echo "==> micro_lookup smoke (hot-path zero-alloc + frozen equivalence)"
( cd build && ./bench/micro_lookup --pipeline \
    --benchmark_min_time=0.05s \
    --benchmark_out=micro_lookup_ci.json \
    --benchmark_out_format=json >/dev/null )
python3 - <<'EOF'
import json, sys

with open('build/micro_lookup_ci.json') as f:
    d = json.load(f)

lookups = [b for b in d['benchmarks']
           if 'TableLookup' in b['name']]
if not any('BM_FrozenTableLookup' in b['name'] for b in lookups):
    sys.exit('micro_lookup: BM_FrozenTableLookup missing from JSON')
if not any('BM_MemoTableLookup' in b['name'] for b in lookups):
    sys.exit('micro_lookup: BM_MemoTableLookup missing from JSON')
if not any('BM_FrozenTableLookupBatch' in b['name'] for b in lookups):
    sys.exit('micro_lookup: BM_FrozenTableLookupBatch missing from JSON')
bad = [(b['name'], b['allocs_per_iter']) for b in lookups
       if b.get('allocs_per_iter', 0) != 0]
if bad:
    sys.exit('micro_lookup: nonzero allocs_per_iter: %r' % bad)
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
    'sharded_identical', 'agg_serial_s', 'agg_sharded_s',
    'cohorts') if k not in d]
if missing:
    sys.exit('fleet_sim json missing: ' + ', '.join(missing))
if not d['delta_beats_full']:
    sys.exit('fleet_sim: delta OTA payload does not beat the '
             'full-package baseline')
if not d['sharded_identical']:
    sys.exit('fleet_sim: sharded aggregation diverged from serial')
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

echo "==> pipeline bitwise-equivalence replay (sequential vs --pipeline, asan)"
./build-asan/tests/parallel_test \
    --gtest_filter='PipelineTest.MatchesSequentialBitwise:PipelineTest.DeterminismFuzz:PipelineTest.BaselineSchemeMatchesSequential'

echo "==> pipeline obs export smoke (fig11 --pipeline --obs-json)"
./build/bench/fig11_schemes --quick --pipeline \
    --obs-json build/fig11_obs_pipeline.json >/dev/null
python3 - <<'EOF'
import json, sys

with open('build/fig11_obs_pipeline.json') as f:
    d = json.load(f)

missing = []
for stage in ('gen', 'decide', 'exec'):
    for section, key in [
        ('gauges', f'pipeline.stage.{stage}.occupancy'),
        ('counters', f'pipeline.stage.{stage}.items'),
        ('counters', f'pipeline.stage.{stage}.blocked'),
        ('counters', f'pipeline.stage.{stage}.deadline_misses'),
        ('histograms', f'pipeline.stage.{stage}.queue_depth'),
    ]:
        if key not in d.get(section, {}):
            missing.append(f'{section}/{key}')
if missing:
    sys.exit('fig11 --pipeline --obs-json missing: ' +
             ', '.join(missing))
for stage in ('gen', 'exec'):
    occ = d['gauges'][f'pipeline.stage.{stage}.occupancy']
    if occ <= 0.0:
        sys.exit(f'pipeline.stage.{stage}.occupancy not positive')
if (d['counters']['pipeline.stage.gen.items'] !=
        d['counters']['pipeline.stage.exec.items']):
    sys.exit('pipeline: gen/exec item counts disagree')
EOF

echo "==> tsan smoke (concurrent lookups + parallel Shrink phase + pipeline)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS" --target parallel_test \
    --target obs_test --target ml_test --target micro_train \
    --target fleet_test
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/ml_test \
    --gtest_filter='ChunkedDatasetTest.ThreadInvarianceOnSharedView'
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/parallel_test \
    --gtest_filter='ParallelRunnerTest.ConcurrentLookupsOnSharedConstTable:ParallelRunnerTest.ConcurrentLookupsOnSharedConstFrozenTable:ParallelRunnerTest.ConcurrentBatchLookupsOnSharedConstFrozenTable:ParallelRunnerTest.RunSessionsMatchesSerialBitwise:ShrinkParallelTest.*:PipelineTest.MatchesSequentialBitwise:PipelineTest.ConcurrentPipelinedSessionsOnSharedFrozenTable'
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/obs_test \
    --gtest_filter='ShardedRegistry.*'
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/bench/micro_train --quick --profile-s 10 --trees 8 \
    --threads 4 --out build-tsan/micro_train_tsan.json >/dev/null

echo "==> tsan sharded-merge equivalence (fleet aggregation)"
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/fleet_test \
    --gtest_filter='FleetAggregateTest.*'

echo "==> task pool (tsan parallel_test @ 8 threads + steady-state spawn check)"
# The whole parallel suite — pool internals, nested submission,
# concurrent external callers, leased pipeline workers — racing on
# an 8-way shared pool under tsan.
SNIP_THREADS=8 TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/parallel_test
# Zero steady-state respawns: across a 5-epoch continuous-learning
# run every epoch's Shrink/PFI/session parallelism must reuse the
# same resident workers, so the lifetime spawn total cannot exceed
# the resident pool size.
./build/bench/fig12_continuous_learning --quick --epochs 5 \
    --threads 4 --obs-json build/fig12_obs_pool.json >/dev/null
python3 - <<'EOF'
import json, sys

with open('build/fig12_obs_pool.json') as f:
    d = json.load(f)

g = d.get('gauges', {})
for k in ('pool.threads_spawned', 'pool.size', 'pool.tasks',
          'pool.steals', 'pool.overflow', 'pool.park_ns'):
    if k not in g:
        sys.exit('fig12 --obs-json missing gauge: ' + k)
spawned, size = g['pool.threads_spawned'], g['pool.size']
if spawned > size:
    sys.exit('pool: threads_spawned %r > pool size %r — workers '
             'were respawned across ContinuousLearner epochs'
             % (spawned, size))
if g['pool.tasks'] <= 0:
    sys.exit('pool: no tasks executed despite --threads 4')
EOF

echo "==> corruption fuzz smoke (OTA model codec + SNPF arena, asan)"
SNIP_FUZZ_ITERS=512 \
    ./build-asan/tests/model_codec_test \
    --gtest_filter='ModelCodec*Fuzz*'
SNIP_FUZZ_ITERS=512 \
    ./build-asan/tests/core_test \
    --gtest_filter='*FrozenArenaCorruptionFuzz*'
./build-asan/tests/trace_test \
    --gtest_filter='ColumnarLogTest.MmapCorruptionRejectedCleanly:ColumnarLogTest.CorruptionRejectedOrSafe'
SNIP_FUZZ_ITERS=256 \
    ./build-asan/tests/trace_test \
    --gtest_filter='TrainingSectionTest.CorruptionFuzzRejectedOrSafe:TrainingSectionTest.LabelColumnBitFlipRejected:TrainingWriterTest.RejectsMisuseAndUnfinishedFiles'
./build-asan/tests/ml_test \
    --gtest_filter='ChunkedDatasetTest.BlockSizeInvarianceFuzz:ChunkedDatasetTest.RejectsForeignSchema'

echo "==> SNPD patch corruption fuzz (delta OTA receive path, asan)"
SNIP_FUZZ_ITERS=512 \
    ./build-asan/tests/fleet_test \
    --gtest_filter='Fleet*Fuzz*'

echo "==> batch-equivalence fuzz (decideBatch/lookupBatch vs scalar, asan)"
./build-asan/tests/core_test \
    --gtest_filter='Schemes.DecideBatchMatchesScalarFuzz:MemoTableTest.FrozenLookupBatchMatchesScalar'

echo "==> all green"
