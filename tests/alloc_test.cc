/**
 * @file
 * Allocation contracts of the per-event runtime path, on the calling
 * thread:
 *
 *  - the game model: once a reused EventObject and HandlerExecution
 *    have held one event of each type, makeEvent + process +
 *    applyOutputs allocate nothing (runSession drives every event of
 *    a session through the same two buffers);
 *  - the table lookup: FrozenTable gather + match + outputs with a
 *    pre-sized LookupScratch and output buffer allocates nothing,
 *    hit or miss;
 *  - the SNIP decision: SnipScheme::decide + observe allocate nothing
 *    without online fill, and with it only when the overlay's arrays
 *    grow (O(log entries) times), audits included;
 *  - the pool: a warm util::parallelFor dispatch allocates nothing
 *    (stack-resident job, FunctionRef callable);
 *  - ml::Dataset construction makes a fixed number of allocations,
 *    never O(rows).
 *
 * The binary replaces operator new with a thread-local counter, so
 * one thread's allocations never land in another's count; that is
 * why it is its own test executable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>

#include "core/frozen_table.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "ml/dataset.h"
#include "trace/recorder.h"
#include "util/parallel.h"
#include "util/rng.h"

// GCC flags malloc-backed replacement allocators as mismatched with
// the deletes it inlines elsewhere in the TU; the pair below is
// consistent (new->malloc, delete->free), so silence it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
thread_local uint64_t t_allocs = 0;
}

void *
operator new(size_t size)
{
    ++t_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t size)
{
    ++t_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses
// them), so every block reaching the deletes below came from malloc.
void *
operator new(size_t size, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(size);
}

void *
operator new[](size_t size, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace snip {
namespace games {
namespace {

class AllocTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllocTest, SteadyStateEventPathAllocatesNothing)
{
    auto game = makeGame(GetParam());
    const auto &mix = game->params().mix;
    util::Rng rng(41);
    events::EventObject ev;
    HandlerExecution ex;
    double now = 0.0;
    auto step = [&](events::EventType t) {
        game->makeEvent(t, now, rng, ev);
        game->process(ev, ex);
        game->applyOutputs(ex.outputs);
        now += 0.01;
    };

    // Warm-up: the first event of each type sizes the buffers.
    for (const auto &m : mix)
        step(m.type);

    // Steady state, types drawn at random so every transition
    // between types (and every branch of each handler) is exercised.
    const uint64_t before = t_allocs;
    for (int i = 0; i < 20000; ++i)
        step(mix[rng.uniformInt(0, mix.size() - 1)].type);
    const uint64_t allocs = t_allocs - before;
    EXPECT_EQ(allocs, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllGames, AllocTest,
                         ::testing::ValuesIn(allGameNames()));

/**
 * A deployed model of @p name built the way the runtime builds one,
 * from a recorded 30 s Baseline session whose events are kept in
 * @p events.
 */
core::SnipModel
deployedModel(const std::string &name,
              std::vector<events::EventObject> *events = nullptr)
{
    auto game = makeGame(name);
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = 30.0;
    cfg.record_events = true;
    core::SessionResult res = core::runSession(*game, baseline, cfg);
    auto replica = makeGame(name);
    trace::Profile profile = trace::Replayer::replay(res.trace, *replica);
    core::SnipModel model = core::buildSnipModel(profile, *game);
    if (events)
        *events = std::move(res.trace.events);
    return model;
}

class LookupAllocTest : public ::testing::TestWithParam<std::string>
{
};

// Driven by a recorded session replayed through a fresh game (so
// history-side reads see the recorded state and the lookups hit as
// they do at runtime), with the scratch and the output buffer
// pre-sized to the widest selection and output as SnipScheme sizes
// them.
TEST_P(LookupAllocTest, LookupsAllocateNothing)
{
    std::vector<events::EventObject> trace;
    core::SnipModel model = deployedModel(GetParam(), &trace);
    const core::FrozenTable &frozen = *model.table;

    core::LookupScratch scratch;
    scratch.values.reserve(frozen.maxSelected());
    scratch.present.reserve(frozen.maxSelected());
    std::vector<events::FieldValue> outputs;
    outputs.reserve(frozen.maxOutputs());

    auto live = makeGame(GetParam());
    HandlerExecution ex;
    uint64_t allocs = 0, hits = 0;
    for (const auto &ev : trace) {
        const uint64_t before = t_allocs;
        core::BucketMatch m = frozen.match(
            ev.type, frozen.gather(ev, *live, scratch), scratch);
        if (m.hit())
            frozen.outputs(ev.type, m.entry, outputs);
        allocs += t_allocs - before;
        hits += m.hit();
        live->process(ev, ex);
        live->applyOutputs(ex.outputs);
    }
    EXPECT_EQ(allocs, 0u) << GetParam();
    EXPECT_GT(hits, 0u) << GetParam();  // the hit path ran
}

INSTANTIATE_TEST_SUITE_P(AllGames, LookupAllocTest,
                         ::testing::ValuesIn(allGameNames()));

class SnipSchemeAllocTest : public ::testing::TestWithParam<std::string>
{
};

// The SNIP decision path driven as runSession drives it: decide, then
// either the short-circuit outputs or the handler's own outputs and
// observe(). Hits, misses and watchdog audits all run. Only events
// that grow the online-fill overlay may allocate, and its arrays grow
// geometrically.
TEST_P(SnipSchemeAllocTest, DecideObserveAllocateOnlyOnOverlayGrowth)
{
    core::SnipModel model = deployedModel(GetParam());
    size_t deployed = model.types.size();
    core::SnipRuntimeConfig rcfg;
    rcfg.audit_every = 16;
    core::SnipScheme scheme(model, rcfg);
    auto live = makeGame(GetParam());
    const auto &mix = live->params().mix;
    util::Rng rng(43);
    events::EventObject ev;
    HandlerExecution truth;
    double now = 0.0;
    uint64_t allocs = 0, stray = 0, hits = 0, misses = 0;
    auto step = [&](bool count) {
        live->makeEvent(mix[rng.uniformInt(0, mix.size() - 1)].type,
                        now, rng, ev);
        live->process(ev, truth);
        now += 0.01;
        const uint64_t before = t_allocs;
        const size_t entries = scheme.overlayEntries();
        const uint64_t clears = scheme.tableClears();
        core::Decision d = scheme.decide(*live, ev, truth);
        if (!d.shortcircuit)
            scheme.observe(truth);
        const uint64_t n = t_allocs - before;
        live->applyOutputs(d.shortcircuit ? *d.outputs : truth.outputs);
        // A watchdog clear logs a formatted warning line.
        if (!count || scheme.tableClears() != clears)
            return;
        (d.lookup_hit ? hits : misses) += 1;
        allocs += n;
        if (scheme.overlayEntries() <= entries)
            stray += n;
    };
    for (int i = 0; i < 2000; ++i)  // warm-up
        step(false);
    const uint64_t audits = scheme.auditsRun();
    for (int i = 0; i < 20000; ++i)
        step(true);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
    EXPECT_GT(scheme.auditsRun(), audits);
    EXPECT_EQ(stray, 0u);
    // Each deployed type's overlay keeps ~20 growable arrays.
    const uint64_t growths = static_cast<uint64_t>(
        std::bit_width(scheme.overlayEntries()) + 1);
    EXPECT_LE(allocs, 20 * deployed * growths)
        << scheme.overlayEntries() << " overlay entries";
}

INSTANTIATE_TEST_SUITE_P(AllGames, SnipSchemeAllocTest,
                         ::testing::ValuesIn(allGameNames()));

TEST(DatasetAllocTest, ConstructionAllocationsDoNotGrowWithRows)
{
    auto game = makeGame("ab_evolution");
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = 30.0;
    cfg.record_events = true;
    core::SessionResult res = core::runSession(*game, baseline, cfg);
    auto replica = makeGame("ab_evolution");
    trace::Profile profile = trace::Replayer::replay(res.trace, *replica);
    auto drags = profile.ofType(events::EventType::Drag);
    ASSERT_GE(drags.size(), 100u);

    const std::span<const HandlerExecution *const> recs(drags);
    auto ctorAllocs = [&](size_t rows) {
        const uint64_t before = t_allocs;
        ml::Dataset ds(recs.first(rows), game->schema());
        return t_allocs - before;
    };
    const uint64_t few = ctorAllocs(10);
    const uint64_t all = ctorAllocs(drags.size());
    EXPECT_EQ(all, few) << drags.size() << " rows vs 10";
    EXPECT_LE(all, 16u);
}

TEST(DispatchAllocTest, WarmParallelForAllocatesNothing)
{
    std::atomic<uint64_t> sink{0};
    auto body = [&](size_t i) {
        sink.fetch_add(i + 1, std::memory_order_relaxed);
    };
    for (size_t n : {4, 64}) {
        util::parallelFor(n, body, 4);  // spawns the workers once
        const uint64_t before = t_allocs;
        for (int r = 0; r < 1000; ++r)
            util::parallelFor(n, body, 4);
        EXPECT_EQ(t_allocs - before, 0u) << "n = " << n;
    }
    EXPECT_GT(sink.load(), 0u);
}

}  // namespace
}  // namespace games
}  // namespace snip
