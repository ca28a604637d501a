/**
 * @file
 * Allocation contracts of the per-event runtime path, on the calling
 * thread:
 *
 *  - the game model: once a reused EventObject and HandlerExecution
 *    have held one event of each type, makeEvent + process +
 *    applyOutputs allocate nothing (runSession drives every event of
 *    a session through the same two buffers);
 *  - the table lookup: MemoTable::lookup and FrozenTable::lookup
 *    with a pre-sized LookupScratch allocate nothing, hit or miss;
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
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>

#include "core/frozen_table.h"
#include "core/memo_table.h"
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

class LookupAllocTest : public ::testing::TestWithParam<std::string>
{
};

// Both table layouts, driven by a recorded session replayed through a
// fresh game (so history-side reads see the recorded state and the
// lookups hit as they do at runtime), with the scratch pre-sized to
// the widest selection as the runtime sizes it.
TEST_P(LookupAllocTest, LookupsAllocateNothing)
{
    auto game = makeGame(GetParam());
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = 30.0;
    cfg.record_events = true;
    core::SessionResult res = core::runSession(*game, baseline, cfg);
    auto replica = makeGame(GetParam());
    trace::Profile profile = trace::Replayer::replay(res.trace, *replica);
    core::SnipModel model = core::buildSnipModel(profile, *game);
    std::shared_ptr<const core::FrozenTable> frozen =
        model.table->freeze();

    size_t widest = 0;
    for (const auto &t : model.types)
        widest = std::max(widest, t.selection.selected.size());
    core::LookupScratch ms, fs;
    for (core::LookupScratch *s : {&ms, &fs}) {
        s->values.reserve(widest);
        s->present.reserve(widest);
    }

    auto live = makeGame(GetParam());
    HandlerExecution ex;
    uint64_t allocs = 0, mhits = 0, fhits = 0;
    for (const auto &ev : res.trace.events) {
        const uint64_t before = t_allocs;
        core::MemoLookup m = model.table->lookup(ev, *live, ms);
        core::FrozenLookup f = frozen->lookup(ev, *live, fs);
        allocs += t_allocs - before;
        mhits += m.hit;
        fhits += f.hit;
        live->process(ev, ex);
        live->applyOutputs(ex.outputs);
    }
    EXPECT_EQ(allocs, 0u) << GetParam();
    EXPECT_GT(mhits, 0u) << GetParam();  // the hit path ran
    EXPECT_GT(fhits, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllGames, LookupAllocTest,
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
