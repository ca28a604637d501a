/**
 * @file
 * Tests of the multi-session parallel harness (util::parallelFor
 * over independent sessions) and of the concurrency contracts it
 * depends on: const FrozenTable
 * lookups from many threads, const-Game reads, and bitwise-identical
 * session results regardless of worker count.
 *
 * The ConcurrentLookupsOnSharedConst* tests and the ShrinkParallelTest
 * suite are the TSan smoke targets (tools/ci.sh runs this binary
 * under -fsanitize=thread).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/frozen_table.h"
#include "core/model_codec.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "ml/dataset.h"
#include "ml/pfi.h"
#include "ml/table_predictor.h"
#include "obs/metrics.h"
#include "trace/recorder.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace snip {
namespace core {
namespace {

TEST(ParallelRunnerTest, DefaultThreadCountRespectsEnv)
{
    ::setenv("SNIP_THREADS", "3", 1);
    EXPECT_EQ(util::defaultThreadCount(), 3u);
    ::setenv("SNIP_THREADS", "bogus", 1);
    EXPECT_GE(util::defaultThreadCount(), 1u);  // falls back, never 0
    ::unsetenv("SNIP_THREADS");
    EXPECT_GE(util::defaultThreadCount(), 1u);
}

TEST(ParallelRunnerTest, DefaultThreadCountRejectsPartialParses)
{
    // A trailing-garbage value must be ignored (warn + fallback),
    // not silently truncated to its numeric prefix.
    unsigned fallback;
    {
        ::unsetenv("SNIP_THREADS");
        fallback = util::defaultThreadCount();
    }
    ::setenv("SNIP_THREADS", "4abc", 1);
    EXPECT_EQ(util::defaultThreadCount(), fallback);
    ::setenv("SNIP_THREADS", "4 8", 1);
    EXPECT_EQ(util::defaultThreadCount(), fallback);
    ::setenv("SNIP_THREADS", "", 1);
    EXPECT_EQ(util::defaultThreadCount(), fallback);
    ::setenv("SNIP_THREADS", "0", 1);
    EXPECT_EQ(util::defaultThreadCount(), fallback);
    ::setenv("SNIP_THREADS", "-2", 1);
    EXPECT_EQ(util::defaultThreadCount(), fallback);
    // Complete parses still work, including the 0x base prefix.
    ::setenv("SNIP_THREADS", "0x10", 1);
    EXPECT_EQ(util::defaultThreadCount(), 16u);
    ::unsetenv("SNIP_THREADS");
}

TEST(ParallelRunnerTest, ForEachCoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        constexpr size_t kN = 100;
        std::vector<std::atomic<int>> counts(kN);
        util::parallelFor(kN, [&](size_t i) {
            counts[i].fetch_add(1, std::memory_order_relaxed);
        }, threads);
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(counts[i].load(), 1) << "index " << i;
    }
    // n smaller than the pool, and n == 0, must both work.
    std::atomic<int> total{0};
    util::parallelFor(3, [&](size_t) { total.fetch_add(1); }, 8);
    EXPECT_EQ(total.load(), 3);
    util::parallelFor(0, [&](size_t) { ADD_FAILURE() << "fn called"; },
                      8);
}

// ------------------------------------------------------- task pool

TEST(TaskPoolTest, NestedParallelForCompletesAtEveryPoolSize)
{
    // A task running on a pool worker submits a nested loop and
    // help-waits; at pool size 1 the owner drains its own loop
    // alone, at larger sizes helpers race it. Deadlock here hangs
    // the test binary, which is the assertion.
    for (unsigned threads : {1u, 2u, 8u}) {
        constexpr size_t kOuter = 6;
        constexpr size_t kInner = 5;
        std::vector<std::atomic<int>> counts(kOuter * kInner);
        util::parallelFor(kOuter, [&](size_t o) {
            util::parallelFor(kInner, [&](size_t i) {
                counts[o * kInner + i].fetch_add(
                    1, std::memory_order_relaxed);
            }, threads);
        }, threads);
        for (size_t k = 0; k < counts.size(); ++k)
            EXPECT_EQ(counts[k].load(), 1)
                << "threads " << threads << " slot " << k;
    }
    // Three levels deep, for good measure.
    std::atomic<int> total{0};
    util::parallelFor(3, [&](size_t) {
        util::parallelFor(3, [&](size_t) {
            util::parallelFor(3, [&](size_t) {
                total.fetch_add(1, std::memory_order_relaxed);
            }, 8);
        }, 8);
    }, 8);
    EXPECT_EQ(total.load(), 27);
}

TEST(TaskPoolTest, ConcurrentExternalCallersShareThePool)
{
    // Eight raw std::threads (none of them pool workers) each drive
    // their own parallelFor against the shared pool at once — the
    // TSan smoke for the job list, idle waits and helper hand-off.
    constexpr size_t kCallers = 8;
    constexpr size_t kN = 64;
    std::vector<std::vector<std::atomic<int>>> counts(kCallers);
    for (auto &c : counts) {
        std::vector<std::atomic<int>> fresh(kN);
        c.swap(fresh);
    }
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int round = 0; round < 4; ++round) {
                util::parallelFor(kN, [&, c](size_t i) {
                    counts[c][i].fetch_add(
                        1, std::memory_order_relaxed);
                }, 4);
            }
        });
    }
    for (auto &t : callers)
        t.join();
    for (size_t c = 0; c < kCallers; ++c)
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(counts[c][i].load(), 4)
                << "caller " << c << " index " << i;
}

TEST(TaskPoolTest, ExceptionsPropagateToTheSubmitter)
{
    // The first fn exception must surface on the calling thread
    // after the loop winds down (never std::terminate), and the
    // pool must stay usable afterwards.
    EXPECT_THROW(
        util::parallelFor(16, [&](size_t i) {
            if (i % 2 == 0)
                throw std::runtime_error("boom");
        }, 4),
        std::runtime_error);
    std::atomic<int> total{0};
    util::parallelFor(16, [&](size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
    }, 4);
    EXPECT_EQ(total.load(), 16);
}

/** Set while this thread runs one of caller A's indices. */
thread_local bool t_inside_a = false;

TEST(TaskPoolTest, WaiterNeverRunsForeignIndices)
{
    // Caller A nests a parallelFor inside each of its indices, so
    // the thread running an A index help-waits on the nested loop
    // with the marker set. Caller B's body asserts the marker is
    // clear: a waiter that ran B's indices (or any other loop's)
    // would trip it — the rule PFI's thread_local scratch needs.
    std::atomic<int> foreign{0};
    std::atomic<int> a_total{0};
    std::atomic<int> b_total{0};
    std::atomic<bool> a_done{false};
    int b_rounds = 0;
    std::thread a([&] {
        for (int round = 0; round < 50; ++round) {
            util::parallelFor(8, [&](size_t) {
                t_inside_a = true;
                util::parallelFor(16, [&](size_t) {
                    a_total.fetch_add(1, std::memory_order_relaxed);
                }, 4);
                t_inside_a = false;
            }, 4);
        }
        a_done.store(true);
    });
    std::thread b([&] {
        // Keep B's loops listed for as long as A runs.
        for (; b_rounds < 200 || !a_done.load(); ++b_rounds) {
            util::parallelFor(16, [&](size_t) {
                if (t_inside_a)
                    foreign.fetch_add(1, std::memory_order_relaxed);
                b_total.fetch_add(1, std::memory_order_relaxed);
            }, 4);
        }
    });
    a.join();
    b.join();
    EXPECT_EQ(foreign.load(), 0);
    EXPECT_EQ(a_total.load(), 50 * 8 * 16);
    EXPECT_EQ(b_total.load(), b_rounds * 16);
}

TEST(TaskPoolTest, StatsAreMonotonicAndSpawnsStayBounded)
{
    util::ParallelStats before = util::parallelStats();
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round) {
        util::parallelFor(32, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        }, 8);
    }
    util::ParallelStats after = util::parallelStats();
    EXPECT_EQ(total.load(), 50 * 32);
    EXPECT_GE(after.tasks, before.tasks);
    // The warm-path contract: the pool grows (once) toward the
    // largest requested fan-out — threads=8 needs 7 helpers — and
    // repeated dispatch never creates another thread.
    EXPECT_EQ(after.threads_spawned,
              std::max<uint64_t>(before.threads_spawned, 7u));
    for (int round = 0; round < 20; ++round)
        util::parallelFor(32, [&](size_t) {}, 8);
    util::ParallelStats again = util::parallelStats();
    EXPECT_EQ(again.threads_spawned, after.threads_spawned);
    EXPECT_GE(again.tasks, after.tasks);
}

/**
 * The engine the pool replaced: spawn and join fresh std::threads on
 * every call. Kept only as the reference of the dispatch test below.
 */
void
spawnParallelFor(size_t n, util::FunctionRef<void(size_t)> fn,
                 unsigned threads)
{
    unsigned workers =
        static_cast<unsigned>(std::min<size_t>(threads, n));
    std::atomic<size_t> next{0};
    auto body = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> helpers;
    for (unsigned w = 1; w < workers; ++w)
        helpers.emplace_back(body);
    body();
    for (auto &t : helpers)
        t.join();
}

/** Mean ns per call over @p reps calls of @p fn. */
template <typename F>
double
nsPerCall(int reps, F fn)
{
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        fn();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           reps;
}

// The pool's reason to exist: a Shrink runs thousands of small PFI
// loops, so a warm dispatch must beat spawn-per-call by at least 5x.
// The two sides are timed in alternating rounds and each keeps its
// best round, which keeps the ratio stable while other tests share
// the cores.
TEST(TaskPoolTest, WarmDispatchBeatsSpawnPerCall)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "timed in the uninstrumented build only: the "
                    "sanitizers slow the pool's atomics and thread "
                    "creation by different factors";
#endif
    constexpr unsigned kThreads = 4;
    constexpr size_t kN = 4;
    std::atomic<uint64_t> sink{0};
    auto body = [&](size_t i) {
        sink.fetch_add(i + 1, std::memory_order_relaxed);
    };
    util::parallelFor(kN, body, kThreads);  // spawns the workers once
    double pool_ns = 0.0, spawn_ns = 0.0;
    for (int round = 0; round < 20; ++round) {
        double p = nsPerCall(
            500, [&] { util::parallelFor(kN, body, kThreads); });
        double s = nsPerCall(
            50, [&] { spawnParallelFor(kN, body, kThreads); });
        pool_ns = round == 0 ? p : std::min(pool_ns, p);
        spawn_ns = round == 0 ? s : std::min(spawn_ns, s);
    }
    EXPECT_GE(spawn_ns, 5.0 * pool_ns)
        << "pool " << pool_ns << " ns vs spawn " << spawn_ns
        << " ns per parallelFor";
}

/** Field-by-field equality of two session stats blocks. */
void
expectStatsEqual(const SessionStats &a, const SessionStats &b)
{
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.shortcircuits, b.shortcircuits);
    EXPECT_EQ(a.instr_total, b.instr_total);
    EXPECT_EQ(a.instr_skipped, b.instr_skipped);
    EXPECT_EQ(a.ip_work_total, b.ip_work_total);
    EXPECT_EQ(a.ip_work_skipped, b.ip_work_skipped);
    EXPECT_EQ(a.lookup_bytes, b.lookup_bytes);
    EXPECT_EQ(a.lookup_candidates, b.lookup_candidates);
    EXPECT_EQ(a.lookup_energy_j, b.lookup_energy_j);
    EXPECT_EQ(a.erroneous_shortcircuits, b.erroneous_shortcircuits);
    EXPECT_EQ(a.err_temp_only, b.err_temp_only);
    EXPECT_EQ(a.err_history, b.err_history);
    EXPECT_EQ(a.err_extern, b.err_extern);
    EXPECT_EQ(a.output_fields_total, b.output_fields_total);
    EXPECT_EQ(a.output_fields_wrong, b.output_fields_wrong);
    EXPECT_EQ(a.useless_events, b.useless_events);
    EXPECT_EQ(a.useless_instr_executed, b.useless_instr_executed);
}

/**
 * The determinism guarantee every session-parallel bench relies on:
 * sessions run through util::parallelFor on a 4-worker pool,
 * each building its own game and scheme inside the body, produce
 * results bitwise identical to a plain serial loop (scheduling order
 * must not leak into results).
 */
TEST(ParallelRunnerTest, ForEachSessionsMatchSerialBitwise)
{
    constexpr size_t kSessions = 6;
    const uint64_t base = 0xab5e5510ULL;
    auto run = [&](size_t i) {
        auto game = games::makeGame("colorphun");
        BaselineScheme baseline;
        SimulationConfig cfg;
        cfg.duration_s = 10.0;
        cfg.seed = util::mixCombine(base, i);
        return runSession(*game, baseline, cfg);
    };

    std::vector<SessionResult> par(kSessions);
    util::parallelFor(kSessions, [&](size_t i) { par[i] = run(i); }, 4);

    for (size_t i = 0; i < kSessions; ++i) {
        SessionResult ser = run(i);
        expectStatsEqual(par[i].stats, ser.stats);
        EXPECT_EQ(par[i].report.total(), ser.report.total());
        EXPECT_EQ(par[i].report.elapsed(), ser.report.elapsed());
        ASSERT_EQ(par[i].report.components().size(),
                  ser.report.components().size());
        for (size_t c = 0; c < ser.report.components().size(); ++c) {
            EXPECT_EQ(par[i].report.components()[c].dynamic_j,
                      ser.report.components()[c].dynamic_j);
            EXPECT_EQ(par[i].report.components()[c].static_j,
                      ser.report.components()[c].static_j);
        }
    }
}

/**
 * The parallel benches give each task a *fresh clone* of the game
 * where the serial loops reused one instance (runSession resets it).
 * Those must be equivalent, or parallelizing would change results.
 */
TEST(ParallelRunnerTest, FreshCloneEquivalentToReset)
{
    SimulationConfig cfg;
    cfg.duration_s = 10.0;

    auto reused = games::makeGame("memory_game");
    BaselineScheme s1;
    SessionResult warm = runSession(*reused, s1, cfg);
    (void)warm;  // dirty the instance, then rely on reset()
    BaselineScheme s2;
    SessionResult again = runSession(*reused, s2, cfg);

    auto fresh = games::makeGame("memory_game");
    BaselineScheme s3;
    SessionResult clone = runSession(*fresh, s3, cfg);

    expectStatsEqual(again.stats, clone.stats);
    EXPECT_EQ(again.report.total(), clone.report.total());
}

/** A colorphun model built the way the runtime builds one, and the
 *  recorded session it came from. */
SnipModel
colorphunModel(SessionResult *session)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 30.0;
    cfg.record_events = true;
    *session = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("colorphun");
    trace::Profile profile =
        trace::Replayer::replay(session->trace, *replica);
    return buildSnipModel(profile, *game, SnipConfig{});
}

/**
 * The shared-read contract the whole design rests on: many threads
 * probing ONE const FrozenTable (its arena and its off-wire full-key
 * index) + ONE const Game, each with its own scratch, must be
 * race-free (tools/ci.sh runs this under -fsanitize=thread) and must
 * each see exactly what a serial reader sees.
 */
void
expectConcurrentLookupsMatchSerial(const FrozenTable &table,
                                   const games::Game &game,
                                   const std::vector<events::EventObject>
                                       &events)
{
    ASSERT_FALSE(events.empty());
    struct Totals {
        uint64_t hits = 0, candidates = 0, bytes = 0, ordinals = 0;
        void add(const FrozenLookup &r)
        {
            hits += r.hit;
            candidates += r.candidates;
            bytes += r.bytes_scanned;
            ordinals += r.hit ? r.entry_ordinal : 0;
        }
    };
    Totals ref;
    {
        LookupScratch scratch;
        for (const auto &ev : events)
            ref.add(table.lookup(ev, game, scratch));
    }

    constexpr unsigned kThreads = 8;
    constexpr int kRounds = 4;
    std::vector<Totals> totals(kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            LookupScratch scratch;  // per-caller, reused
            for (int round = 0; round < kRounds; ++round)
                for (const auto &ev : events)
                    totals[t].add(table.lookup(ev, game, scratch));
        });
    }
    for (auto &th : pool)
        th.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(totals[t].hits, ref.hits * kRounds) << "thread " << t;
        EXPECT_EQ(totals[t].candidates, ref.candidates * kRounds)
            << "thread " << t;
        EXPECT_EQ(totals[t].bytes, ref.bytes * kRounds) << "thread " << t;
        EXPECT_EQ(totals[t].ordinals, ref.ordinals * kRounds)
            << "thread " << t;
    }
    EXPECT_GT(ref.hits, 0u);
}

// The device path: a zero-copy view attached by deployModel() over a
// package, its full-key index derived at attach.
TEST(ParallelRunnerTest, ConcurrentLookupsOnSharedConstTable)
{
    SessionResult res;
    SnipModel built = colorphunModel(&res);
    auto pkg = std::make_shared<util::ByteBuffer>();
    packModel(built, *pkg);
    util::Result<SnipModel> deployed = deployModel(pkg);
    ASSERT_TRUE(deployed.ok()) << deployed.status().message();
    ASSERT_TRUE(deployed.value().table->zeroCopy());

    auto game = games::makeGame("colorphun");
    expectConcurrentLookupsMatchSerial(*deployed.value().table, *game,
                                       res.trace.events);
}

// The build-side path: the self-owning arena Shrink froze.
TEST(ParallelRunnerTest, ConcurrentLookupsOnSharedConstFrozenTable)
{
    SessionResult res;
    SnipModel model = colorphunModel(&res);
    ASSERT_GT(model.table->entryCount(), 0u);
    ASSERT_FALSE(model.table->zeroCopy());

    auto game = games::makeGame("colorphun");
    expectConcurrentLookupsMatchSerial(*model.table, *game,
                                       res.trace.events);
}

// -------------------------------------------- Shrink-phase parallelism

/** Profile colorphun the way the offline pipeline does. */
trace::Profile
profileColorphun(double duration_s)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = duration_s;
    cfg.record_events = true;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("colorphun");
    return trace::Replayer::replay(res.trace, *replica);
}

/**
 * End-to-end thread invariance of the Shrink phase: buildSnipModel
 * at 1 worker and at 8 workers must produce identical selections
 * and byte-identical packed models (the OTA payload).
 */
TEST(ShrinkParallelTest, ModelBytesInvariantAcrossThreadCounts)
{
    auto game = games::makeGame("colorphun");
    trace::Profile profile = profileColorphun(30.0);

    SnipConfig c1;
    c1.threads = 1;
    SnipConfig c8 = c1;
    c8.threads = 8;
    SnipModel m1 = buildSnipModel(profile, *game, c1);
    SnipModel m8 = buildSnipModel(profile, *game, c8);

    ASSERT_EQ(m1.types.size(), m8.types.size());
    ASSERT_FALSE(m1.types.empty());
    for (size_t i = 0; i < m1.types.size(); ++i) {
        const auto &a = m1.types[i].selection;
        const auto &b = m8.types[i].selection;
        EXPECT_EQ(a.selected, b.selected);
        EXPECT_EQ(a.selected_bytes, b.selected_bytes);
        EXPECT_EQ(a.selected_error, b.selected_error);
        EXPECT_EQ(a.selected_hit_rate, b.selected_hit_rate);
        EXPECT_EQ(a.curve.size(), b.curve.size());
    }

    util::ByteBuffer p1, p8;
    packModel(m1, p1);
    packModel(m8, p8);
    ASSERT_EQ(p1.size(), p8.size());
    EXPECT_EQ(p1.data(), p8.data());  // byte-identical OTA payload
}

/**
 * TSan smoke for the training-side shared-read contract: many
 * threads running batched prediction and PFI against ONE const
 * Dataset and ONE const TablePredictor (PFI scratch is thread_local)
 * must be race-free and each see what a serial caller sees.
 */
TEST(ShrinkParallelTest, ConcurrentPfiOnSharedConstTable)
{
    auto game = games::makeGame("colorphun");
    trace::Profile profile = profileColorphun(30.0);

    // Dataset of the busiest event type.
    events::EventType busiest = events::EventType::Touch;
    size_t best = 0;
    for (events::EventType t : profile.typesPresent()) {
        size_t n = profile.ofType(t).size();
        if (n > best) {
            best = n;
            busiest = t;
        }
    }
    ASSERT_GE(best, 64u);
    const ml::Dataset ds(profile.ofType(busiest), game->schema());
    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;

    ml::TablePredictor table;
    table.train(ds, cols);
    const ml::TablePredictor &ctable = table;  // shared, const

    // Serial reference pass.
    std::vector<uint64_t> ref(ds.numRows());
    ctable.predictRows(ds, 0, ds.numRows(), ref.data());
    ml::PfiConfig pcfg;
    pcfg.threads = 1;
    ml::PfiResult ref_pfi = ml::computePfi(ctable, ds, cols, pcfg);

    constexpr unsigned kThreads = 8;
    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            std::vector<uint64_t> mine(ds.numRows());
            ctable.predictRows(ds, 0, ds.numRows(), mine.data());
            ml::PfiResult pfi =
                ml::computePfi(ctable, ds, cols, pcfg);
            ok[t] = (mine == ref &&
                     pfi.importance == ref_pfi.importance &&
                     pfi.base_error == ref_pfi.base_error);
        });
    }
    for (auto &th : pool)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(ok[t], 1) << "thread " << t;
}

/**
 * TSan smoke for util::EmpiricalCdf's lazily-sorted const reads.
 * The old implementation mutated the sample vector from const
 * accessors with no synchronization, so the first concurrent
 * readers raced on the sort; reads of a shared const CDF must now
 * be safe and agree with a serial reference.
 */
TEST(ShrinkParallelTest, ConcurrentEmpiricalCdfReads)
{
    util::EmpiricalCdf cdf;
    util::Rng rng(99);
    for (int i = 0; i < 5000; ++i)
        cdf.add(rng.uniformReal(0.0, 1000.0));

    // Serial reference from a copy (the copy sorts independently,
    // leaving `cdf` unsorted for the concurrent first-read below).
    util::EmpiricalCdf ref_cdf(cdf);
    const double quantiles[] = {0.0, 0.25, 0.5, 0.9, 0.99, 1.0};
    double ref_q[6];
    for (int i = 0; i < 6; ++i)
        ref_q[i] = ref_cdf.quantile(quantiles[i]);
    double ref_at = ref_cdf.cdfAt(500.0);

    const util::EmpiricalCdf &shared = cdf;
    constexpr unsigned kThreads = 8;
    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            bool good = true;
            for (int rep = 0; rep < 50; ++rep) {
                for (int i = 0; i < 6; ++i) {
                    good &= shared.quantile(quantiles[i]) ==
                            ref_q[i];
                }
                good &= shared.cdfAt(500.0) == ref_at;
            }
            ok[t] = good;
        });
    }
    for (auto &th : pool)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(ok[t], 1) << "thread " << t;
}

}  // namespace
}  // namespace core
}  // namespace snip
