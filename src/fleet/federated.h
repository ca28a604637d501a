/**
 * @file
 * Federated SNIP backend (paper §VII-C future direction:
 * "techniques such as federated AI can be explored ... for reducing
 * the backend overheads as well as performing collective learning").
 *
 * Centralized backend (the paper's evaluated design): every user
 * uploads their raw event stream; the cloud replays all of them and
 * runs one PFI selection over the merged profile.
 *
 * Federated backend: each user runs PFI selection on their *own*
 * profile locally; only the per-type selected-field votes and the
 * locally-projected table entries leave the device. The server
 * majority-votes the necessary-input sets and unions the uploads
 * with aggregateUploads (aggregate.h). Raw traces never leave the
 * device and the per-device selection work is a fraction of the
 * centralized job.
 *
 * Both backends record a device the way recordUploadPayloads
 * (fleet_sim.h) does, and the federated one packs each upload with
 * the same step, so an upload has one shape wherever it is built.
 */

#ifndef SNIP_FLEET_FEDERATED_H
#define SNIP_FLEET_FEDERATED_H

#include <string>
#include <vector>

#include "core/snip.h"

namespace snip {
namespace fleet {

/** Federation knobs. */
struct FederatedConfig {
    /** Number of participating users. */
    int num_users = 5;
    /** Play time recorded per user (s). */
    double session_s = 150.0;
    uint64_t seed = 0xfede7a7eULL;
    /** Per-user selection config. */
    core::SnipConfig snip;
};

/** What the backend consumed/transferred. */
struct BackendCost {
    /** Profile records pushed through one selection job (the
     *  dominant backend compute term — paper: 2 days/2 min trace). */
    uint64_t selection_records = 0;
    /** Raw bytes uploaded from devices. */
    uint64_t uploaded_bytes = 0;
};

/** Outcome of building a deployable model via either backend. */
struct FederatedResult {
    core::SnipModel model;
    BackendCost cost;
    /** Per event type: how many users voted for each kept field. */
    std::vector<std::pair<events::EventType, size_t>> deployed_types;
};

/**
 * Votes a field needs to be kept: a majority of at least half the
 * users, (num_users + 1) / 2 — 1 of 1 or 2, 2 of 3 or 4, and so on.
 * num_users <= 0 needs 0.
 */
size_t federatedVotesNeeded(int num_users);

/**
 * Build a model the centralized way: merge all users' replayed
 * profiles and run a single selection.
 *
 * @param game_name Which game all users play.
 */
FederatedResult buildCentralized(const std::string &game_name,
                                 const FederatedConfig &cfg = {});

/**
 * Build a model the federated way: per-user selection, majority
 * vote on fields, then each user's profile projected onto the agreed
 * fields and packed, and the uploads folded in user order by
 * aggregateUploads.
 */
FederatedResult buildFederated(const std::string &game_name,
                               const FederatedConfig &cfg = {});

/**
 * Evaluate a deployable model on a held-out user (a seed none of
 * the training users used).
 */
struct FederatedEval {
    double coverage = 0.0;
    double error_field_rate = 0.0;
    double energy_savings = 0.0;
};
FederatedEval evaluateModel(const std::string &game_name,
                            const core::SnipModel &model, uint64_t seed,
                            double session_s = 45.0);

}  // namespace fleet
}  // namespace snip

#endif  // SNIP_FLEET_FEDERATED_H
