#include "core/parallel_runner.h"

#include "util/parallel.h"
#include "util/rng.h"

namespace snip {
namespace core {

unsigned
defaultThreadCount()
{
    return util::defaultThreadCount();
}

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads ? threads : defaultThreadCount())
{
}

void
ParallelRunner::forEach(size_t n,
                        util::FunctionRef<void(size_t)> fn) const
{
    util::parallelFor(n, fn, threads_);
}

uint64_t
ParallelRunner::sessionSeed(uint64_t base, uint64_t index)
{
    return util::mixCombine(base, util::mix64(index + 1));
}

}  // namespace core
}  // namespace snip
