/**
 * @file
 * Offline replay of a recorded session. The device side records
 * itself: core::runSession with record_events appends each event to
 * its result's EventTrace as it crosses the Binder channel (paper:
 * "future android versions can instrument the Binder instances ...
 * to dump all the events"), and that trace is what the device
 * uploads.
 *
 * Replayer is the cloud side: it feeds a recorded event stream
 * through a *fresh* instance of the game "as if the user is playing
 * the game once again in the emulator" and captures the complete
 * input/output record of every handler execution.
 */

#ifndef SNIP_TRACE_RECORDER_H
#define SNIP_TRACE_RECORDER_H

#include "events/event.h"
#include "games/game.h"
#include "trace/profile.h"

namespace snip {
namespace trace {

/** Offline replay: event stream -> full I/O profile. */
class Replayer
{
  public:
    /**
     * Replay @p trace against @p game (which is reset() first so
     * the emulator reproduces the original session's state
     * evolution) and return the full profile.
     */
    static Profile replay(const EventTrace &trace, games::Game &game);
};

}  // namespace trace
}  // namespace snip

#endif  // SNIP_TRACE_RECORDER_H
