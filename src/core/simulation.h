/**
 * @file
 * The session runner: plays a game for a configured duration under
 * a scheme, charging the simulated SoC for the full event path —
 * sensor sampling, framework plumbing, Binder IPC, handler
 * execution (or its short-circuit), per-frame background rendering
 * — while applying the IP sleep policy and keeping the error /
 * coverage / overhead accounting the benches report.
 */

#ifndef SNIP_CORE_SIMULATION_H
#define SNIP_CORE_SIMULATION_H

#include "core/scheme.h"
#include "soc/soc.h"
#include "trace/profile.h"

namespace snip {
namespace core {

/** Session knobs. */
struct SimulationConfig {
    /** Simulated play time (s). */
    double duration_s = 120.0;
    /** Seed for the user/event stream. */
    uint64_t seed = 0x5e551011ULL;
    /** Record the delivered event stream into the result. */
    bool record_events = false;
    /** Energy model (defaults to the Snapdragon-821 calibration). */
    soc::EnergyModel model = soc::EnergyModel::snapdragon821();

    /**
     * Lookup-path cost model: big-core instructions per scanned
     * byte plus a fixed dispatch cost per event. Calibrated so the
     * measured SNIP overheads land on the paper's Fig. 11c range
     * (~1-12% of energy, avg ~3%).
     */
    double lookup_instr_per_byte = 500.0;
    uint64_t lookup_instr_base = 4000;

    /**
     * Optional metrics sink (nullptr = observability off): lookup
     * hit/miss/byte counters, decide outcomes, erroneous-
     * shortcircuit classes, per-frame/event counts, and end-of-
     * session energy/rate gauges (`lookup.*`, `decide.*`,
     * `session.*` — see DESIGN.md). Counters are resolved once at
     * session start, so the disabled hot path costs one branch per
     * record point and allocates nothing. A Registry is single-
     * writer: concurrent sessions (core::ParallelRunner) must use
     * one Registry each and merge after the join.
     */
    obs::Registry *obs = nullptr;
};

/** Counters collected over one session. */
struct SessionStats {
    uint64_t events = 0;
    uint64_t shortcircuits = 0;

    /** Ground-truth handler instructions of all events. */
    uint64_t instr_total = 0;
    /** Instructions not executed thanks to the scheme. */
    uint64_t instr_skipped = 0;
    /** Ground-truth IP work of all events (work units). */
    double ip_work_total = 0.0;
    /** IP work not executed. */
    double ip_work_skipped = 0.0;

    /** Lookup volume. */
    uint64_t lookup_bytes = 0;
    uint64_t lookup_candidates = 0;
    /** Energy charged for lookups (J). */
    double lookup_energy_j = 0.0;

    /** Short-circuits whose outputs differed from ground truth. */
    uint64_t erroneous_shortcircuits = 0;
    uint64_t err_temp_only = 0;
    uint64_t err_history = 0;
    uint64_t err_extern = 0;
    /** Output-field error accounting (Fig. 12 metric). */
    uint64_t output_fields_total = 0;
    uint64_t output_fields_wrong = 0;

    /** Useless (no-op) events observed (ground truth). */
    uint64_t useless_events = 0;
    /** Instructions spent on useless events *after* the scheme. */
    uint64_t useless_instr_executed = 0;

    /** Instruction-weighted short-circuit coverage (Fig. 11b). */
    double coverageInstr() const;
    /** IP-work-weighted skip coverage (Max IP reporting). */
    double coverageIpWork() const;
    /** Erroneous output-field rate (Fig. 12 metric). */
    double errorFieldRate() const;
};

/** Everything a session produces. */
struct SessionResult {
    soc::EnergyReport report;
    SessionStats stats;
    /** Recorded event stream (when record_events). */
    trace::EventTrace trace;
};

/**
 * Run one session of @p game under @p scheme. The game is reset()
 * at session start; the Soc is constructed fresh.
 */
SessionResult runSession(games::Game &game, Scheme &scheme,
                         const SimulationConfig &cfg = {});

/**
 * Average whole-device power of an idle (pocketed) phone under the
 * same energy model — the Fig. 3 "idle" reference bar.
 */
util::Power idlePhonePower(const soc::EnergyModel &model);

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_SIMULATION_H
