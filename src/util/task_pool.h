/**
 * @file
 * Persistent work-stealing task pool: one lazily-started,
 * process-lifetime set of worker threads shared by every parallel
 * phase in the library — Shrink training/PFI, fleet aggregation and
 * session fan-out. Before this existed, util::parallelFor spawned
 * and joined fresh std::threads on every call, and the callers
 * invoke it *in loops* (PFI once per refresh, fleet aggregation
 * three times per round, the continuous learner every epoch), so
 * thread creation was a recurring per-epoch tax. The pool pays it
 * once.
 *
 * Structure (the SNIG/SparseDNN persistent-executor idiom):
 *
 *  - one Chase–Lev-style deque per worker: the owner pushes/pops at
 *    the bottom lock-free, thieves CAS the top (Le et al., "Correct
 *    and Efficient Work-Stealing for Weak Memory Models");
 *  - a shared mutex-protected overflow ring for submissions from
 *    threads that are not pool workers (every external parallelFor
 *    caller), and for deque spill.
 *
 * Scheduling units are "participation tickets", not per-index tasks:
 * a parallel loop publishes one stack-resident Job carrying an
 * atomic index cursor and submits up to (workers - 1) tickets; every
 * ticket (and the calling thread, which always participates) drains
 * the same cursor. Which executor runs which index therefore varies
 * run to run exactly as it did with spawned threads — the
 * schedule-independence contract of util::parallelFor is unchanged.
 *
 * Nesting: a task running on a pool worker may submit a nested loop
 * and help-wait without deadlock. The waiter first drains the nested
 * cursor itself, then retires its own still-queued tickets (they are
 * the newest entries of its own deque, or reclaimable from the
 * overflow ring for external callers), and only then waits for
 * indices in flight on other workers — all of which terminate by
 * induction. Waiting never blocks the pool: tickets left in queues
 * are no-ops once the cursor is exhausted.
 *
 * Observability: stats() exposes monotonic totals —
 * threads_spawned / tasks / steals / overflow / park_ns — exported
 * as `pool.*` gauges by obs::exportTaskPoolStats. threads_spawned
 * equals the resident worker count in steady state; it growing with
 * epochs is the regression the `tools/ci.sh` pool stage guards
 * against.
 */

#ifndef SNIP_UTIL_TASK_POOL_H
#define SNIP_UTIL_TASK_POOL_H

#include <cstddef>
#include <cstdint>

#include "util/function_ref.h"

namespace snip {
namespace util {

class TaskPool
{
  public:
    /** Monotonic lifetime totals (relaxed snapshots). */
    struct Stats {
        uint64_t threads_spawned = 0;  ///< Workers ever created.
        uint64_t tasks = 0;     ///< Tickets executed.
        uint64_t steals = 0;    ///< Successful cross-deque steals.
        uint64_t overflow = 0;  ///< Tickets routed via the shared ring.
        uint64_t park_ns = 0;   ///< Cumulative worker idle-park time.
    };

    /**
     * The process-wide pool. Never destroyed (workers are detached
     * and park forever at exit; the instance is reachable through a
     * static pointer, so leak checkers stay quiet).
     */
    static TaskPool &instance();

    /**
     * Run fn(i) for every i in [0, n) with at most @p threads
     * concurrent executors: the calling thread plus up to
     * threads - 1 pool workers. Grows the pool (once) toward
     * threads - 1 resident workers; never spawns on a warm path.
     * Returns after every index ran and every ticket retired.
     * The first exception thrown by fn is rethrown here, on the
     * calling thread, after the loop winds down.
     *
     * Safe to call from inside a task already running on a pool
     * worker (nested submission + help-wait, see file comment).
     */
    void parallelFor(size_t n, FunctionRef<void(size_t)> fn,
                     unsigned threads);

    /** Resident worker count (monotonic; 0 until first parallel use). */
    unsigned size() const;

    Stats stats() const;

  private:
    TaskPool();
    ~TaskPool() = delete;  // process-lifetime by design

    struct Impl;
    Impl *impl_;
};

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_TASK_POOL_H
