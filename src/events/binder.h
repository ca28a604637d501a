/**
 * @file
 * Binder-like IPC channel between the sensor framework runtime and
 * the game process (paper §II-A: events reach the game "through
 * shared memory between the sensor hub's runtime and the game
 * workload execution ... accomplished using the Binder framework").
 * Charges a marshal/unmarshal copy plus kernel-crossing cycles per
 * transaction. The paper proposes recording event data at this
 * point ("future android versions can instrument the Binder
 * instances ... to dump all the events"); core::runSession records
 * each event right after its transfer.
 */

#ifndef SNIP_EVENTS_BINDER_H
#define SNIP_EVENTS_BINDER_H

#include "events/event.h"
#include "soc/soc.h"

namespace snip {
namespace events {

/** One-way event channel: framework -> app; charges the SoC. */
class BinderChannel
{
  public:
    /** @param soc SoC to charge. */
    explicit BinderChannel(soc::Soc &soc) : soc_(soc) {}

    /** Transfer one event object across the channel. */
    void transfer(const EventObject &ev);

  private:
    soc::Soc &soc_;
};

}  // namespace events
}  // namespace snip

#endif  // SNIP_EVENTS_BINDER_H
