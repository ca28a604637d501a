#include "events/sensor_manager.h"

namespace snip {
namespace events {

namespace {

/** Efficiency-core instructions to filter one raw sample. */
constexpr uint64_t kInstrPerRawSample = 900;
/** Efficiency-core instructions to assemble one event object. */
constexpr uint64_t kInstrPerEvent = 14000;
/** Memory bytes touched per raw sample (hub FIFO drain). */
constexpr uint64_t kBytesPerRawSample = 16;

}  // namespace

void
SensorManager::deliver(const EventObject &ev)
{
    uint64_t raw = rawSamplesPerEvent(ev.type);
    if (ev.type == EventType::CameraFrame)
        soc_.captureCameraFrame();
    else
        soc_.sampleSensors(raw);
    soc_.executeCpu(kInstrPerRawSample * raw + kInstrPerEvent,
                    soc::CpuCluster::Little);
    soc_.accessMemory(kBytesPerRawSample * raw);
}

}  // namespace events
}  // namespace snip
