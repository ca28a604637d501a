/**
 * @file
 * Allocation contract of the per-event game model: once a reused
 * EventObject and HandlerExecution have held one event of each type,
 * makeEvent + process + applyOutputs allocate nothing. runSession
 * relies on it to drive every event of a session through the same
 * two buffers.
 *
 * The binary replaces operator new with a thread-local counter (the
 * one bench/micro_lookup.cc uses), so it is its own test executable.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "games/registry.h"
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

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace games
}  // namespace snip
