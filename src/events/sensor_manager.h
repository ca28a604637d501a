/**
 * @file
 * The OS sensor framework: turns raw sensor samples into high-level
 * events (Android's SensorManager role) and charges the SoC for the
 * plumbing — sensor-hub sampling energy plus efficiency-core cycles
 * for sample filtering and event assembly. This cost is paid for
 * *every* event, short-circuited or not; SNIP only removes handler
 * processing downstream of delivery.
 */

#ifndef SNIP_EVENTS_SENSOR_MANAGER_H
#define SNIP_EVENTS_SENSOR_MANAGER_H

#include "events/event.h"
#include "soc/soc.h"

namespace snip {
namespace events {

/** SensorManager: accounts the sensor-to-event path on the SoC. */
class SensorManager
{
  public:
    /** @param soc SoC to charge. */
    explicit SensorManager(soc::Soc &soc) : soc_(soc) {}

    /**
     * Deliver one event: charge raw sampling (or a camera capture),
     * filtering, and event assembly.
     */
    void deliver(const EventObject &ev);

  private:
    soc::Soc &soc_;
};

}  // namespace events
}  // namespace snip

#endif  // SNIP_EVENTS_SENSOR_MANAGER_H
