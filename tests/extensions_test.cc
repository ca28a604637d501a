/**
 * @file
 * Tests for the paper's future-work extensions implemented here:
 * the runtime audit watchdog (§VII-B), the QoE model for tolerable
 * Out.Temp errors (§IV-B / §V-B), and the federated backend
 * (§VII-C).
 */

#include <gtest/gtest.h>

#include "core/qoe.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "fleet/federated.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "util/logging.h"

namespace snip {
namespace core {
namespace {

// ----------------------------------------------------------- QoE

TEST(Qoe, GlitchPerceptibilityIsSmallAt60Fps)
{
    QoeModel m;
    // One 16.7 ms frame vs ~190 ms reaction time.
    EXPECT_NEAR(m.glitchPerceptibility(), 0.0877, 0.01);
}

TEST(Qoe, CleanSessionIsAcceptable)
{
    SessionStats stats;
    stats.events = 100;
    QoeReport r = scoreQoe(stats, 60.0);
    EXPECT_TRUE(r.acceptable);
    EXPECT_DOUBLE_EQ(r.glitches_per_minute, 0.0);
}

TEST(Qoe, TempGlitchesDiscountedByPerceptibility)
{
    SessionStats stats;
    stats.err_temp_only = 6;  // 6 glitches in 1 minute
    QoeReport r = scoreQoe(stats, 60.0);
    EXPECT_DOUBLE_EQ(r.glitches_per_minute, 6.0);
    EXPECT_LT(r.perceptible_glitches_per_minute, 1.0);
    EXPECT_TRUE(r.acceptable);
}

TEST(Qoe, HistoryCorruptionNeverAcceptable)
{
    SessionStats stats;
    stats.err_history = 1;
    QoeReport r = scoreQoe(stats, 60.0);
    EXPECT_FALSE(r.acceptable);
    EXPECT_GT(r.corruptions_per_minute, 0.0);
}

TEST(Qoe, InvalidSessionLengthFatal)
{
    bool prev = util::setThrowOnError(true);
    SessionStats stats;
    EXPECT_THROW(scoreQoe(stats, 0.0), std::runtime_error);
    util::setThrowOnError(prev);
}

// ------------------------------------------------------- Watchdog

/** A model whose empty table selects @p selected for Touch. */
SnipModel
touchModel(const games::Game &game, std::vector<events::FieldId> selected)
{
    MemoTable table(game.schema());
    table.setSelected(events::EventType::Touch, std::move(selected));
    SnipModel model;
    model.game = game.name();
    model.table = table.freeze();
    return model;
}

/** Model with a deliberately broken selection: the necessary
 *  history fields are omitted, so hits go wrong. */
SnipModel
brokenModel(games::Game &game)
{
    std::vector<events::FieldId> only_zone;
    const auto &spec = game.handler(events::EventType::Touch);
    for (const auto &efs : spec.event_fields)
        if (efs.necessary)
            only_zone.push_back(efs.fid);
    return touchModel(game, only_zone);
}

TEST(Watchdog, AuditsCatchBrokenTable)
{
    auto game = games::makeGame("colorphun");
    SnipModel model = brokenModel(*game);
    SnipRuntimeConfig rcfg;
    rcfg.audit_every = 4;
    rcfg.audit_window = 8;
    SnipScheme scheme(model, rcfg);

    SimulationConfig cfg;
    cfg.duration_s = 120.0;
    SessionResult res = runSession(*game, scheme, cfg);
    (void)res;
    EXPECT_GT(scheme.auditsRun(), 5u);
    EXPECT_GT(scheme.auditsFailed(), 0u);
    EXPECT_GT(scheme.tableClears(), 0u);
}

TEST(Watchdog, HealthyTableNeverCleared)
{
    auto game = games::makeGame("colorphun");
    SnipModel model = touchModel(
        *game, game->necessaryInputIds(events::EventType::Touch));
    SnipRuntimeConfig rcfg;
    rcfg.audit_every = 4;
    rcfg.audit_window = 8;
    SnipScheme scheme(model, rcfg);

    SimulationConfig cfg;
    cfg.duration_s = 120.0;
    SessionResult res = runSession(*game, scheme, cfg);
    (void)res;
    EXPECT_GT(scheme.auditsRun(), 5u);
    EXPECT_EQ(scheme.auditsFailed(), 0u);
    EXPECT_EQ(scheme.tableClears(), 0u);
}

TEST(Watchdog, AuditedEventsAreNotShortcircuited)
{
    auto game = games::makeGame("colorphun");
    SnipModel model = touchModel(
        *game, game->necessaryInputIds(events::EventType::Touch));
    SnipRuntimeConfig audit_on, audit_off;
    audit_on.audit_every = 2;  // every other hit audited
    SnipScheme with(model, audit_on);
    SimulationConfig cfg;
    cfg.duration_s = 60.0;
    SessionResult r_with = runSession(*game, with, cfg);

    SnipScheme without(model, audit_off);
    SessionResult r_without = runSession(*game, without, cfg);

    // Auditing halves the effective short-circuits (same stream).
    EXPECT_LT(r_with.stats.shortcircuits,
              r_without.stats.shortcircuits);
}

// ------------------------------------------------------ Federated

TEST(Federated, MatchesCentralizedQualityAtLowerCost)
{
    // Camera-driven game: raw uploads must include the recorded
    // feed, which is where federation pays off.
    fleet::FederatedConfig cfg;
    cfg.num_users = 5;
    cfg.session_s = 150.0;
    fleet::FederatedResult central =
        fleet::buildCentralized("chase_whisply", cfg);
    fleet::FederatedResult fed =
        fleet::buildFederated("chase_whisply", cfg);

    // Costs: federated never uploads more raw data, and its serial
    // selection job is at most one user's profile.
    EXPECT_LT(fed.cost.selection_records,
              central.cost.selection_records);
    EXPECT_LT(fed.cost.uploaded_bytes, central.cost.uploaded_bytes);

    // Deployed quality on a held-out user.
    uint64_t seed = 0xeeeeULL;
    fleet::FederatedEval ec =
        fleet::evaluateModel("chase_whisply", central.model, seed);
    fleet::FederatedEval ef =
        fleet::evaluateModel("chase_whisply", fed.model, seed);
    EXPECT_GT(ef.coverage, 0.2);
    EXPECT_GT(ef.coverage, ec.coverage * 0.6);
    EXPECT_LT(ef.error_field_rate, 0.02);
}

// A field is kept by a majority of at least half the users.
TEST(FederatedTest, MajorityThreshold)
{
    const size_t expected[] = {0, 1, 1, 2, 2, 3, 3, 4, 4, 5};
    for (int n = 0; n < 10; ++n)
        EXPECT_EQ(fleet::federatedVotesNeeded(n), expected[n])
            << n << " users";
    EXPECT_EQ(fleet::federatedVotesNeeded(-3), 0u);
}

TEST(Federated, EvaluateModelTakesConstModel)
{
    // evaluateModel must accept a const (already frozen) model; the
    // SnipScheme const overload serves lookups without freezing.
    fleet::FederatedConfig cfg;
    cfg.num_users = 2;
    cfg.session_s = 45.0;
    fleet::FederatedResult fed = fleet::buildFederated("colorphun", cfg);
    const SnipModel &frozen_view = fed.model;
    fleet::FederatedEval ev =
        fleet::evaluateModel("colorphun", frozen_view, 909, 20.0);
    EXPECT_GE(ev.coverage, 0.0);
    EXPECT_LE(ev.coverage, 1.0);
}

TEST(Federated, DeployedTypesReported)
{
    fleet::FederatedConfig cfg;
    cfg.num_users = 2;
    cfg.session_s = 60.0;
    fleet::FederatedResult fed = fleet::buildFederated("colorphun", cfg);
    ASSERT_FALSE(fed.deployed_types.empty());
    EXPECT_EQ(fed.deployed_types[0].first, events::EventType::Touch);
    EXPECT_GT(fed.deployed_types[0].second, 0u);
}

}  // namespace
}  // namespace core
}  // namespace snip
