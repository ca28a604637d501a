#include "util/task_pool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>


namespace snip {
namespace util {

namespace {

/** Hard ceiling on resident workers (sanity bound, not a target). */
constexpr unsigned kMaxWorkers = 512;
/** Per-worker deque capacity (tickets, not indices — stays tiny). */
constexpr size_t kDequeCap = 256;
/** Shared overflow ring capacity. */
constexpr size_t kOverflowCap = 4096;
/** Spin iterations before a job waiter parks on the job condvar. */
constexpr int kWaitSpins = 512;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace

/**
 * One parallel loop in flight. Stack-resident in the submitting
 * frame; guaranteed not to be referenced once parallelFor returns
 * because the submitter waits for `pending` (indices not yet run +
 * tickets not yet retired) to reach zero before unwinding.
 *
 * Lifetime discipline: an executor's LAST access to a Job is the
 * pending.fetch_sub that retires its claim — after that it may only
 * touch immortal pool state (the completion condvar lives in Impl,
 * not here), so the submitter can destroy the Job the instant it
 * observes pending == 0. A per-Job condvar would race its own
 * destruction on the fast path.
 */
struct Job {
    Job(size_t n, FunctionRef<void(size_t)> fn, unsigned tickets)
        : n(n), fn(fn), pending(static_cast<int64_t>(n) + tickets)
    {
    }

    const size_t n;
    FunctionRef<void(size_t)> fn;

    /** Index cursor: same atomic-cursor semantics as the old
     *  spawn-per-call engine, so scheduling stays a pure
     *  implementation detail under the write-disjointness
     *  contract. */
    std::atomic<size_t> next{0};
    /**
     * Indices whose fn has not finished plus tickets not yet
     * retired (executed or reclaimed). The seq_cst fetch_sub that
     * takes this to zero identifies the unique finisher, with no
     * follow-up Job read needed; the zero is also the submitter's
     * license to unwind (acquire on the observed 0 orders every
     * executor's prior writes — including eptr — before it).
     */
    std::atomic<int64_t> pending;

    /** First exception out of fn; rethrown on the submitter. */
    std::mutex eptr_mu;
    std::exception_ptr eptr;

    bool
    complete() const
    {
        return pending.load(std::memory_order_seq_cst) == 0;
    }
};

namespace {

/**
 * Bounded Chase–Lev work-stealing deque. The owning worker pushes
 * and pops at the bottom; thieves CAS the top. seq_cst on the
 * cursor handoffs instead of standalone fences (same algorithm as
 * Le et al. 2013, expressed fence-free so TSan models it exactly).
 * Slots hold raw Job pointers; a full deque spills to the shared
 * overflow ring, never grows.
 */
class Deque
{
  public:
    /** Owner only. False when full (caller spills to overflow). */
    bool
    push(Job *job)
    {
        int64_t b = bottom_.load(std::memory_order_relaxed);
        int64_t t = top_.load(std::memory_order_acquire);
        if (b - t >= static_cast<int64_t>(kDequeCap))
            return false;
        slot(b).store(job, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_release);
        return true;
    }

    /** Owner only; LIFO end (newest ticket first). */
    Job *
    pop()
    {
        int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        bottom_.store(b, std::memory_order_seq_cst);
        int64_t t = top_.load(std::memory_order_seq_cst);
        Job *job = nullptr;
        if (t <= b) {
            job = slot(b).load(std::memory_order_relaxed);
            if (t == b) {
                // Last entry: race the thieves for it.
                if (!top_.compare_exchange_strong(
                        t, t + 1, std::memory_order_seq_cst,
                        std::memory_order_relaxed))
                    job = nullptr;
                bottom_.store(b + 1, std::memory_order_relaxed);
            }
        } else {
            bottom_.store(b + 1, std::memory_order_relaxed);
        }
        return job;
    }

    /** Any thread; FIFO end (oldest ticket first). */
    Job *
    steal()
    {
        int64_t t = top_.load(std::memory_order_seq_cst);
        int64_t b = bottom_.load(std::memory_order_seq_cst);
        if (t >= b)
            return nullptr;
        Job *job = slot(t).load(std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(
                t, t + 1, std::memory_order_seq_cst,
                std::memory_order_relaxed))
            return nullptr;  // lost the race; caller just rescans
        return job;
    }

  private:
    std::atomic<Job *> &
    slot(int64_t i)
    {
        return buf_[static_cast<size_t>(i) % kDequeCap];
    }

    alignas(64) std::atomic<int64_t> top_{0};
    alignas(64) std::atomic<int64_t> bottom_{0};
    std::atomic<Job *> buf_[kDequeCap] = {};
};

struct Worker {
    Deque deque;
    unsigned index = 0;
};

/** This thread's pool worker, if it is one. */
thread_local Worker *t_worker = nullptr;

}  // namespace

struct TaskPool::Impl {
    // ------------------------------------------------ worker registry
    /** Slots filled left to right, published via nworkers_. */
    Worker *workers[kMaxWorkers] = {};
    std::atomic<unsigned> nworkers{0};

    // ------------------------------------------------ shared queues
    std::mutex mu;  ///< Guards the ring, parking and growth.
    std::condition_variable cv;
    /** Bumped (under mu) whenever new work arrives; parking workers
     *  wait for it to move so no submission is ever slept through. */
    std::atomic<uint64_t> epoch{0};
    unsigned parked = 0;

    Job *overflow[kOverflowCap] = {};
    size_t overflow_head = 0;  ///< Next pop slot.
    size_t overflow_tail = 0;  ///< Next push slot.
    std::atomic<size_t> overflow_count{0};

    /**
     * Completion channel for job submitters. Deliberately
     * pool-global (and therefore immortal): a finisher signals
     * completion of a stack-resident Job here AFTER its final
     * fetch_sub on that object, so it never touches memory the
     * woken waiter is about to unwind. Shared by all
     * concurrent waiters — parking is rare (post-spin), so the
     * broadcast herd is noise.
     */
    std::mutex done_mu;
    std::condition_variable done_cv;

    // ------------------------------------------------ stats
    std::atomic<uint64_t> stat_spawned{0};
    std::atomic<uint64_t> stat_tasks{0};
    std::atomic<uint64_t> stat_steals{0};
    std::atomic<uint64_t> stat_overflow{0};
    std::atomic<uint64_t> stat_park_ns{0};

    void workerLoop(Worker *self);
    bool runOne(Worker *self);
    void runTicket(Job *job);
    void participate(Job &job);
    void signalDone();
    void spawnLocked();
    void ensureWorkersLocked(size_t want);
    void wakeLocked();
    void submitTickets(Job &job, unsigned tickets);
    void reclaimTickets(Job &job);
    void waitJob(Job &job);
};

// ---------------------------------------------------------- execution

void
TaskPool::Impl::signalDone()
{
    // Empty critical section: pairs with the waiter's
    // predicate-under-done_mu so the notify can't slide into the
    // gap between its check and its wait.
    { std::lock_guard<std::mutex> lock(done_mu); }
    done_cv.notify_all();
}

void
TaskPool::Impl::participate(Job &job)
{
    for (;;) {
        size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            return;
        try {
            job.fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.eptr_mu);
            if (!job.eptr)
                job.eptr = std::current_exception();
        }
        // Last access to the Job for this index; hitting zero makes
        // this thread the unique finisher.
        if (job.pending.fetch_sub(1, std::memory_order_seq_cst) ==
            1)
            signalDone();
    }
}

void
TaskPool::Impl::runTicket(Job *job)
{
    stat_tasks.fetch_add(1, std::memory_order_relaxed);
    participate(*job);
    // Retire the ticket itself. After this fetch_sub the Job must
    // not be touched: the submitter is free to destroy it the
    // moment pending reads zero.
    if (job->pending.fetch_sub(1, std::memory_order_seq_cst) == 1)
        signalDone();
}

bool
TaskPool::Impl::runOne(Worker *self)
{
    if (Job *job = self->deque.pop()) {
        runTicket(job);
        return true;
    }
    if (overflow_count.load(std::memory_order_acquire) > 0) {
        Job *job = nullptr;
        {
            std::lock_guard<std::mutex> lock(mu);
            // Reclaimed slots are nulled in place; skip them.
            while (overflow_head != overflow_tail) {
                job = overflow[overflow_head % kOverflowCap];
                ++overflow_head;
                if (job) {
                    overflow_count.fetch_sub(
                        1, std::memory_order_release);
                    break;
                }
            }
        }
        if (job) {
            runTicket(job);
            return true;
        }
    }
    unsigned n = nworkers.load(std::memory_order_acquire);
    for (unsigned k = 1; k < n; ++k) {
        Worker *victim = workers[(self->index + k) % n];
        if (Job *job = victim->deque.steal()) {
            stat_steals.fetch_add(1, std::memory_order_relaxed);
            runTicket(job);
            return true;
        }
    }
    return false;
}

void
TaskPool::Impl::workerLoop(Worker *self)
{
    t_worker = self;
    for (;;) {
        uint64_t e = epoch.load(std::memory_order_acquire);
        if (runOne(self))
            continue;
        std::unique_lock<std::mutex> lock(mu);
        if (epoch.load(std::memory_order_relaxed) != e)
            continue;  // work arrived during the scan: rescan
        ++parked;
        uint64_t t0 = nowNs();
        cv.wait(lock, [&] {
            return epoch.load(std::memory_order_relaxed) != e;
        });
        stat_park_ns.fetch_add(nowNs() - t0,
                               std::memory_order_relaxed);
        --parked;
    }
}

// ---------------------------------------------------------- submission

void
TaskPool::Impl::spawnLocked()
{
    unsigned n = nworkers.load(std::memory_order_relaxed);
    if (n >= kMaxWorkers)
        return;
    Worker *w = new Worker;
    w->index = n;
    workers[n] = w;
    nworkers.store(n + 1, std::memory_order_release);
    stat_spawned.fetch_add(1, std::memory_order_relaxed);
    std::thread([this, w] { workerLoop(w); }).detach();
}

void
TaskPool::Impl::ensureWorkersLocked(size_t want)
{
    want = std::min<size_t>(want, kMaxWorkers);
    while (nworkers.load(std::memory_order_relaxed) < want)
        spawnLocked();
}

void
TaskPool::Impl::wakeLocked()
{
    epoch.fetch_add(1, std::memory_order_release);
    if (parked > 0)
        cv.notify_all();
}

void
TaskPool::Impl::submitTickets(Job &job, unsigned tickets)
{
    if (tickets == 0)
        return;
    unsigned queued_local = 0;
    if (t_worker && workers[t_worker->index] == t_worker) {
        // Nested submission from a pool worker: lock-free owner
        // pushes; thieves pick the tickets up from the deque.
        while (queued_local < tickets &&
               t_worker->deque.push(&job))
            ++queued_local;
        if (queued_local == tickets) {
            // Skip the lock when nobody is parked: running workers
            // steal without a wakeup, and a ticket missed in the
            // narrow park race is simply reclaimed by this owner in
            // waitJob — parallelism lost for one call, never
            // progress.
            bool maybe_parked;
            {
                std::lock_guard<std::mutex> lock(mu);
                maybe_parked = parked > 0;
                if (maybe_parked)
                    wakeLocked();
            }
            (void)maybe_parked;
            return;
        }
    }
    std::lock_guard<std::mutex> lock(mu);
    unsigned queued = queued_local;
    while (queued < tickets &&
           overflow_tail - overflow_head < kOverflowCap) {
        overflow[overflow_tail % kOverflowCap] = &job;
        ++overflow_tail;
        overflow_count.fetch_add(1, std::memory_order_release);
        stat_overflow.fetch_add(1, std::memory_order_relaxed);
        ++queued;
    }
    // Both rings full: run with fewer helpers. Correctness is the
    // caller's cursor drain, help is best-effort. (Safe to touch
    // the Job here: the submitter is this thread, and it has not
    // begun waiting yet.)
    if (queued < tickets)
        job.pending.fetch_sub(static_cast<int64_t>(tickets - queued),
                              std::memory_order_seq_cst);
    wakeLocked();
}

void
TaskPool::Impl::reclaimTickets(Job &job)
{
    if (job.complete())
        return;
    int64_t reclaimed = 0;
    if (t_worker && workers[t_worker->index] == t_worker) {
        // Our tickets are the newest entries of our own deque, so
        // pop until a foreign ticket (an older job's) surfaces —
        // push it straight back and stop: everything below it
        // predates ours.
        for (;;) {
            Job *got = t_worker->deque.pop();
            if (!got)
                break;
            if (got == &job) {
                ++reclaimed;
                continue;
            }
            if (!t_worker->deque.push(got)) {
                // Deque momentarily full (thief raced us): run the
                // foreign ticket here instead of losing it.
                runTicket(got);
            }
            break;
        }
    } else {
        std::lock_guard<std::mutex> lock(mu);
        for (size_t i = overflow_head; i != overflow_tail; ++i) {
            if (overflow[i % kOverflowCap] == &job) {
                overflow[i % kOverflowCap] = nullptr;
                overflow_count.fetch_sub(
                    1, std::memory_order_release);
                ++reclaimed;
            }
        }
    }
    // This thread is the job's submitter, so even a decrement to
    // zero needs no signal: the only waiter is itself.
    if (reclaimed)
        job.pending.fetch_sub(reclaimed, std::memory_order_seq_cst);
}

void
TaskPool::Impl::waitJob(Job &job)
{
    for (int s = 0; s < kWaitSpins; ++s) {
        if (job.complete())
            return;
        std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return job.complete(); });
}

// ---------------------------------------------------------- public API

TaskPool::TaskPool() : impl_(new Impl) {}

TaskPool &
TaskPool::instance()
{
    // Intentionally leaked: workers are detached process-lifetime
    // threads that park against this object, so it must outlive
    // every static destructor.
    static TaskPool *pool = new TaskPool;
    return *pool;
}

void
TaskPool::parallelFor(size_t n, FunctionRef<void(size_t)> fn,
                      unsigned threads)
{
    if (n == 0)
        return;
    unsigned workers =
        static_cast<unsigned>(std::min<size_t>(threads, n));
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    unsigned tickets = workers - 1;
    Job job(n, fn, tickets);
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->ensureWorkersLocked(tickets);
    }
    impl_->submitTickets(job, tickets);
    impl_->participate(job);
    impl_->reclaimTickets(job);
    impl_->waitJob(job);
    if (job.eptr)
        std::rethrow_exception(job.eptr);
}

unsigned
TaskPool::size() const
{
    return impl_->nworkers.load(std::memory_order_acquire);
}

TaskPool::Stats
TaskPool::stats() const
{
    Stats s;
    s.threads_spawned =
        impl_->stat_spawned.load(std::memory_order_relaxed);
    s.tasks = impl_->stat_tasks.load(std::memory_order_relaxed);
    s.steals = impl_->stat_steals.load(std::memory_order_relaxed);
    s.overflow =
        impl_->stat_overflow.load(std::memory_order_relaxed);
    s.park_ns =
        impl_->stat_park_ns.load(std::memory_order_relaxed);
    return s;
}

}  // namespace util
}  // namespace snip
