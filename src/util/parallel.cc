#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "util/logging.h"

namespace snip {
namespace util {

namespace {

/** Hard ceiling on resident workers (sanity bound, not a target). */
constexpr unsigned kMaxWorkers = 512;

/**
 * One parallel loop in flight, resident in the caller's frame. The
 * cursor is atomic; every other field is guarded by Pool::mu_. The
 * job sits on the pool's list while it still admits helpers, and
 * the caller returns only once no helper is inside it, so a helper's
 * last access is the decrement of `inside` under the lock.
 */
struct Job {
    Job(size_t n, FunctionRef<void(size_t)> fn, unsigned wanted)
        : n(n), fn(fn), wanted(wanted)
    {
    }

    const size_t n;
    FunctionRef<void(size_t)> fn;
    std::atomic<size_t> next{0};
    /** Helpers still to admit; the job is listed iff this is > 0. */
    unsigned wanted;
    /** Helpers currently draining the cursor. */
    unsigned inside = 0;
    /** Next listed job (intrusive, so listing never allocates). */
    Job *link = nullptr;
    /** First exception out of fn; rethrown on the caller. */
    std::exception_ptr error;
};

/**
 * Resident workers that help with listed jobs. One mutex guards the
 * job list and the counts; `work_cv_` wakes idle workers and
 * `done_cv_` wakes callers waiting for their helpers to leave.
 */
class Pool
{
  public:
    /** Intentionally leaked: detached workers wait on it forever. */
    static Pool &
    instance()
    {
        static Pool *pool = new Pool;
        return *pool;
    }

    void
    run(size_t n, FunctionRef<void(size_t)> fn, unsigned helpers)
    {
        Job job(n, fn, helpers);
        unsigned wake;
        {
            std::lock_guard<std::mutex> lock(mu_);
            while (workers_ < std::min(helpers, kMaxWorkers)) {
                std::thread([this] { workerLoop(); }).detach();
                ++workers_;
            }
            job.link = jobs_;
            jobs_ = &job;
            wake = std::min(helpers, idle_);
        }
        for (unsigned k = 0; k < wake; ++k)
            work_cv_.notify_one();

        // The caller drains its own cursor, stops admitting helpers,
        // then waits only for those already inside: they run this
        // job's indices alone, so the wait ends by induction on the
        // nesting depth and never runs a foreign job's indices.
        drain(job);
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (job.wanted > 0) {
                Job **p = &jobs_;
                while (*p != &job)
                    p = &(*p)->link;
                *p = job.link;
                job.wanted = 0;
            }
            done_cv_.wait(lock, [&] { return job.inside == 0; });
        }
        if (job.error)
            std::rethrow_exception(job.error);
    }

    ParallelStats
    stats()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return ParallelStats{workers_, tasks_};
    }

  private:
    Pool() = default;

    void
    drain(Job &job)
    {
        for (;;) {
            size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.n)
                return;
            try {
                job.fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu_);
                if (!job.error)
                    job.error = std::current_exception();
            }
        }
    }

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            ++idle_;
            work_cv_.wait(lock, [this] { return jobs_ != nullptr; });
            --idle_;
            Job *job = jobs_;
            if (--job->wanted == 0)
                jobs_ = job->link;
            ++job->inside;
            ++tasks_;
            lock.unlock();
            drain(*job);
            lock.lock();
            if (--job->inside == 0 && job->wanted == 0)
                done_cv_.notify_all();
        }
    }

    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    /** Jobs still admitting helpers, newest first. */
    Job *jobs_ = nullptr;
    unsigned workers_ = 0;
    unsigned idle_ = 0;
    uint64_t tasks_ = 0;
};

}  // namespace

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("SNIP_THREADS")) {
        char *end = nullptr;
        long n = std::strtol(env, &end, 0);
        if (end != env && *end == '\0' && n >= 1)
            return static_cast<unsigned>(n);
        warn("ignoring SNIP_THREADS='%s' (need an integer >= 1)", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(size_t n, FunctionRef<void(size_t)> fn, unsigned threads)
{
    if (n == 0)
        return;
    if (threads == 0)
        threads = defaultThreadCount();
    unsigned workers =
        static_cast<unsigned>(std::min<size_t>(threads, n));
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    Pool::instance().run(n, fn, workers - 1);
}

ParallelStats
parallelStats()
{
    return Pool::instance().stats();
}

}  // namespace util
}  // namespace snip
