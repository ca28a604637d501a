/**
 * @file
 * Multi-session parallelism for the simulation harness. Every
 * session is an independent, fully-seeded unit of work (its own
 * Game, its own Scheme, its own Soc), so N sessions scale across N
 * cores with bitwise-identical per-session results regardless of
 * the worker count — workers only ever write their own result slot.
 *
 * Threading model (see DESIGN.md "Threading model"): shared-read
 * objects (profiles, schemas, const Games used only for schema /
 * params access, const MemoTables) may be referenced from any
 * worker; mutable objects (the session's Game, Scheme, Soc, and any
 * online-filled MemoTable) must be owned by exactly one task: build
 * them inside the forEach body, so they are worker-owned by design.
 */

#ifndef SNIP_CORE_PARALLEL_RUNNER_H
#define SNIP_CORE_PARALLEL_RUNNER_H

#include <cstddef>
#include <cstdint>

#include "util/function_ref.h"

namespace snip {
namespace core {

/**
 * Worker count used when a runner is built with threads == 0:
 * the SNIP_THREADS environment variable when set (>= 1), otherwise
 * std::thread::hardware_concurrency(). (Alias for
 * util::defaultThreadCount() — the pool engine itself lives in
 * util/parallel.h so the ML layer's Shrink-phase parallelism can
 * share it without a core dependency.)
 */
unsigned defaultThreadCount();

/** Fixed-size thread pool for independent simulation work. */
class ParallelRunner
{
  public:
    /** @param threads Worker count; 0 uses defaultThreadCount(). */
    explicit ParallelRunner(unsigned threads = 0);

    /** Worker count this runner uses. */
    unsigned threads() const { return threads_; }

    /**
     * Run fn(i) for every i in [0, n), distributing indices across
     * the workers. fn must only write state owned by index i (or
     * otherwise disjoint per index); under that contract results are
     * deterministic and identical to a serial loop. The callable is
     * borrowed, not copied (util::FunctionRef): it only needs to
     * stay alive for the duration of this call.
     */
    void forEach(size_t n, util::FunctionRef<void(size_t)> fn) const;

    /**
     * Canonical per-session seed derivation: decorrelates session
     * @p index from @p base without ever colliding with the base
     * seed itself (index is offset before mixing).
     */
    static uint64_t sessionSeed(uint64_t base, uint64_t index);

  private:
    unsigned threads_;
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_PARALLEL_RUNNER_H
