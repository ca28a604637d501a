/**
 * @file
 * Continuous learning (paper §V-B Option 2 and Fig. 12): loop
 * record -> replay -> PFI -> deploy across play sessions. Every
 * epoch re-learns from the whole accumulated profile and ships a
 * fresh model, which runs that epoch's session under a new SnipScheme
 * (so the online-fill overlay starts empty each epoch). The first
 * deployment is built from an artificially insufficient profile, so
 * early sessions short-circuit erroneously; as every session's
 * events are shipped to the "cloud" and replayed into the growing
 * profile, re-learning drives the erroneous-output-field rate
 * toward zero. An optional confidence gate withholds
 * short-circuiting until the model's tested error clears a
 * threshold (the paper's suggested way to avoid exposing users to
 * the bad early epochs).
 */

#ifndef SNIP_CORE_CONTINUOUS_LEARNING_H
#define SNIP_CORE_CONTINUOUS_LEARNING_H

#include <functional>
#include <vector>

#include "core/simulation.h"
#include "util/bytes.h"

namespace snip {
namespace core {

/** Learner knobs. */
struct LearningConfig {
    /** Number of play sessions (training epochs). */
    int epochs = 50;
    /** Length of each play session (s). */
    double session_s = 30.0;
    /**
     * Records kept from the seed session's profile — kept small to
     * reproduce the paper's insufficient-initial-profile setup.
     */
    size_t initial_profile_records = 30;
    /** Cap on the accumulated profile (drop-oldest beyond it). */
    size_t max_profile_records = 200000;
    /** Withhold short-circuiting until tested error <= gate AND
     *  enough profile evidence has accumulated. */
    bool confidence_gate = false;
    double gate_threshold = 0.005;
    size_t gate_min_records = 600;

    SnipConfig snip;
    SimulationConfig sim;

    /**
     * Optional lossy-OTA-transport hook, applied to each epoch's
     * serialized package before the device unpacks it. Lets tests
     * and demos inject corruption (truncation, bit flips) to
     * exercise the rejection fallback; null means the transport is
     * lossless.
     */
    std::function<void(util::ByteBuffer &)> ota_tamper;

    /**
     * Optional deploy-seam tap, handed each epoch's serialized
     * package as packed — *before* any ota_tamper transport loss —
     * so a backend (e.g. the fleet model registry) can archive the
     * exact bytes the learner shipped. Must not mutate the buffer's
     * contents; null means no one is listening.
     */
    std::function<void(const util::ByteBuffer &)> on_publish;

    /**
     * Optional metrics sink (nullptr = observability off): per-
     * epoch `learn.*` counters/gauges (deployed / gate-withheld /
     * rejected-package counts, payload-byte histogram), the
     * `span.learn.epoch` timer, and — shared into the nested
     * Shrink runs and sessions — their `span.shrink.*` and
     * `session.*` metrics. Never alters learning.
     */
    obs::Registry *obs = nullptr;
};

/** Per-epoch outcome. */
struct EpochResult {
    int epoch = 0;
    /** Erroneous-output-field rate during the session (Fig. 12 y). */
    double error_field_rate = 0.0;
    /** Instruction-weighted short-circuit coverage. */
    double coverage = 0.0;
    /** Whole-session energy (J). */
    double energy_j = 0.0;
    /** Profile records accumulated before this session. */
    size_t profile_records = 0;
    /** Deployed table size (bytes). */
    uint64_t table_bytes = 0;
    /** Serialized OTA package size of the model the device actually
     *  deployed this epoch — the paper's headline ~kB-scale
     *  over-the-air payload. 0 when nothing is deployed (e.g. the
     *  epoch's package was rejected and no prior model survives). */
    uint64_t payload_bytes = 0;
    /** Whether short-circuiting was enabled (confidence gate). */
    bool deployed = true;
    /** The confidence gate withheld an otherwise-deployable model. */
    bool gate_withheld = false;
    /** OTA packages rejected so far (cumulative across epochs). */
    uint64_t rejected_packages = 0;
};

/**
 * Tested error of a model: the per-type holdout selection errors
 * aggregated with each type weighted by the profiled record count
 * behind it, so a high-error type with almost no evidence cannot
 * dominate the confidence gate.
 */
double testedModelError(const SnipModel &model);

/** Run the continuous-learning loop on one game. */
class ContinuousLearner
{
  public:
    /**
     * @param game The game under study (reset per session).
     * @param replica A second instance of the same game used as the
     *        cloud emulator for replay (must share parameters).
     */
    ContinuousLearner(games::Game &game, games::Game &replica,
                      LearningConfig cfg = {});

    /** Run all epochs and return the error trajectory. */
    std::vector<EpochResult> run();

  private:
    games::Game &game_;
    games::Game &replica_;
    LearningConfig cfg_;
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_CONTINUOUS_LEARNING_H
