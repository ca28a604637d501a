/**
 * @file
 * Generic deterministic data-parallel loop, usable from any layer
 * (it lives in util so that snip_ml's Shrink-phase training/PFI,
 * the session-parallel benches and the fleet share one engine
 * without a dependency cycle).
 *
 * The contract is the one DESIGN.md's threading model states:
 * fn(i) must only write state owned by index i (or otherwise
 * disjoint per index). Indices are pulled from an atomic cursor, so
 * *which worker* runs an index varies run to run, but under the
 * write-disjointness contract the aggregate result is
 * schedule-independent and identical to a serial loop.
 *
 * Execution is backed by one small process-lifetime pool: workers
 * are spawned once (lazily, up to the largest thread count ever
 * requested) and reused by every later call, so a warm parallelFor
 * costs a lock and a condvar wake, not a pthread_create. The loop's
 * control block lives on the caller's stack and the callable is
 * taken as a non-owning FunctionRef — zero heap allocations per
 * dispatch — and lambdas at existing call sites convert implicitly.
 */

#ifndef SNIP_UTIL_PARALLEL_H
#define SNIP_UTIL_PARALLEL_H

#include <cstddef>
#include <cstdint>

#include "util/function_ref.h"

namespace snip {
namespace util {

/**
 * Worker count used when a parallel loop is given threads == 0: the
 * SNIP_THREADS environment variable when set (a complete integer
 * >= 1; partial parses like "4abc" are warned about and ignored),
 * otherwise std::thread::hardware_concurrency(). SNIP_THREADS
 * therefore caps *all* library parallelism — session fan-out and
 * Shrink-phase training/PFI alike.
 */
unsigned defaultThreadCount();

/**
 * Run fn(i) for every i in [0, n) across @p threads workers
 * (0 = defaultThreadCount()): the calling thread plus pool workers.
 * With one worker (or n <= 1) this degenerates to a plain serial
 * loop with no thread or atomic traffic at all. Safe to call from
 * inside a task that is itself running on the pool (nested loops
 * help-wait instead of deadlocking), and a waiting caller only ever
 * runs indices of its own loop. The first exception thrown by fn is
 * rethrown on the calling thread after the loop winds down.
 */
void parallelFor(size_t n, FunctionRef<void(size_t)> fn,
                 unsigned threads = 0);

/** Lifetime totals of the pool behind parallelFor. */
struct ParallelStats {
    /** Workers ever created; they are never respawned. */
    uint64_t threads_spawned = 0;
    /** Times a worker joined a loop as a helper. */
    uint64_t tasks = 0;
};

ParallelStats parallelStats();

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_PARALLEL_H
