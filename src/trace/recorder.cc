#include "trace/recorder.h"

namespace snip {
namespace trace {

Profile
Replayer::replay(const EventTrace &trace, games::Game &game)
{
    game.reset();
    Profile profile;
    profile.game = trace.game;
    profile.records.reserve(trace.events.size());
    // Process into one reused buffer; each stored record is an
    // exact-size copy of it.
    games::HandlerExecution ex;
    for (const auto &ev : trace.events) {
        game.process(ev, ex);
        game.applyOutputs(ex.outputs);
        profile.records.push_back(ex);
    }
    return profile;
}

}  // namespace trace
}  // namespace snip
