#include "events/binder.h"

namespace snip {
namespace events {

namespace {

/** Efficiency-core instructions per transaction (syscall path). */
constexpr uint64_t kInstrPerTxn = 9000;
/** Copies of the event object per transaction (in + out). */
constexpr uint64_t kCopies = 2;

}  // namespace

void
BinderChannel::transfer(const EventObject &ev)
{
    soc_.executeCpu(kInstrPerTxn, soc::CpuCluster::Little);
    soc_.accessMemory(static_cast<uint64_t>(ev.sizeBytes()) * kCopies);
}

}  // namespace events
}  // namespace snip
