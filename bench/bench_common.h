/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses: the
 * canonical profile -> model -> evaluation flow with the default
 * durations and seeds every bench uses, plus CSV dumping.
 *
 * Every bench accepts:
 *   --quick          shorter sessions (CI-friendly)
 *   --csv <path>     also dump the series as CSV
 *   --seed <n>       override the default seed
 *   --threads <n>    session-level worker threads (default: all
 *                    cores, or SNIP_THREADS); results are bitwise
 *                    independent of the thread count
 *   --obs-json <path> export the bench's snip::obs metrics registry
 *                    (lookup hit/miss, erroneous-shortcircuit
 *                    classes, per-Shrink-phase wall times, ...) as
 *                    JSON; benches that don't populate a registry
 *                    ignore it
 */

#ifndef SNIP_BENCH_BENCH_COMMON_H
#define SNIP_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <memory>
#include <string>

#include "core/parallel_runner.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "obs/sink.h"
#include "trace/recorder.h"

namespace snip {
namespace bench {

/** Common command-line options. */
struct BenchOptions {
    bool quick = false;
    std::string csv_path;
    uint64_t seed = 77;
    /** Worker threads for independent sessions (0 = default). */
    unsigned threads = 0;
    /** Export the bench's obs registry as JSON here (empty = off). */
    std::string obs_json;
    /**
     * Epoch-count override for the continuous-learning benches
     * (0 = the bench's default). Used by CI to run a short fixed
     * number of epochs when checking per-epoch invariants (e.g.
     * that `pool.threads_spawned` stays flat across epochs).
     */
    unsigned epochs = 0;

    /** Profiling session length (s). */
    double profileSeconds() const { return quick ? 90.0 : 300.0; }
    /** Evaluation session length (s). */
    double evalSeconds() const { return quick ? 30.0 : 60.0; }

    /** Session-parallel runner configured by --threads. */
    core::ParallelRunner runner() const
    {
        return core::ParallelRunner(threads);
    }
};

/** Parse the common options; fatal() on unknown arguments. */
BenchOptions parseOptions(int argc, char **argv);

/** A game together with its recorded profile. */
struct ProfiledGame {
    std::unique_ptr<games::Game> game;
    trace::Profile profile;
};

/**
 * Run a baseline profiling session of @p game_name, replay it on a
 * replica (the offline-emulator step), and return both.
 *
 * @param profile_s Session length; <= 0 uses opts.profileSeconds().
 */
ProfiledGame profileGame(const std::string &game_name,
                         const BenchOptions &opts,
                         double profile_s = 0.0);

/**
 * Profile every catalog game (one parallel task per game), returned
 * in games::allGameNames() order. Identical to calling profileGame()
 * serially for each name.
 */
std::vector<ProfiledGame> profileAllGames(const BenchOptions &opts,
                                          double profile_s = 0.0);

/**
 * Build the deployable SNIP model for a profiled game using the
 * game's recommended developer overrides (paper §V-B Option 1).
 * @p obs, when set, receives the Shrink-phase spans and counters.
 */
core::SnipModel buildModel(const ProfiledGame &pg,
                           const BenchOptions &opts,
                           obs::Registry *obs = nullptr);

/**
 * Write @p reg to opts.obs_json when the flag was given (no-op
 * otherwise); fatal() on I/O failure.
 */
void writeObsJson(const obs::Registry &reg, const BenchOptions &opts);

/** Evaluation-session config with the bench defaults. */
core::SimulationConfig evalConfig(const BenchOptions &opts);

/** Print the standard bench header line. */
void printHeader(const std::string &title, const std::string &paper_ref);

}  // namespace bench
}  // namespace snip

#endif  // SNIP_BENCH_BENCH_COMMON_H
