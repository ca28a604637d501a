/**
 * @file
 * Unit and property tests for the game workload models: schema
 * construction, deterministic handler semantics, the ground-truth
 * necessary-input property (outputs depend on necessary fields
 * only), state evolution, and the user model's repetition
 * statistics — parameterized across all seven games.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <unordered_set>

#include "core/scheme.h"
#include "core/simulation.h"
#include "games/catalog.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "util/logging.h"

namespace snip {
namespace games {
namespace {

// ---------------------------------------------------------- GameState

TEST(GameState, BoundedWrapAndAccumulator)
{
    std::vector<HistoryFieldDecl> decls = {
        {"mode", 4, 4, 1, 0, 1},   // in_fid 0, out_fid 1
        {"score", 8, 0, 0, 2, 3},  // accumulator
    };
    GameState st;
    st.build(decls);
    EXPECT_EQ(st.get(0), 1u);
    EXPECT_TRUE(st.apply(1, 7));  // wraps to 7 % 4 = 3
    EXPECT_EQ(st.get(0), 3u);
    EXPECT_TRUE(st.apply(3, 1000));
    EXPECT_EQ(st.get(2), 1000u);
    EXPECT_FALSE(st.apply(3, 1000));  // unchanged -> no change
}

TEST(GameState, EpochBumpsOnRealChangeOnly)
{
    std::vector<HistoryFieldDecl> decls = {{"m", 4, 4, 0, 0, 1}};
    GameState st;
    st.build(decls);
    uint64_t e0 = st.epoch();
    st.apply(1, 0);  // same value
    EXPECT_EQ(st.epoch(), e0);
    st.apply(1, 2);
    EXPECT_EQ(st.epoch(), e0 + 1);
}

TEST(GameState, NonHistoryOutputIgnored)
{
    std::vector<HistoryFieldDecl> decls = {{"m", 4, 4, 0, 0, 1}};
    GameState st;
    st.build(decls);
    EXPECT_FALSE(st.apply(99, 5));
    EXPECT_FALSE(st.isHistoryOutput(99));
    EXPECT_TRUE(st.isHistoryOutput(1));
}

TEST(GameState, WouldChangeDoesNotMutate)
{
    std::vector<HistoryFieldDecl> decls = {{"m", 4, 4, 0, 0, 1}};
    GameState st;
    st.build(decls);
    EXPECT_TRUE(st.wouldChange(1, 2));
    EXPECT_EQ(st.get(0), 0u);
    EXPECT_EQ(st.epoch(), 0u);
}

TEST(GameState, TryGet)
{
    std::vector<HistoryFieldDecl> decls = {{"m", 4, 4, 5, 0, 1}};
    GameState st;
    st.build(decls);
    uint64_t v = 0;
    EXPECT_TRUE(st.tryGet(0, v));
    EXPECT_EQ(v, 5u % 4u);
    EXPECT_FALSE(st.tryGet(42, v));
}

TEST(GameState, FingerprintTracksBoundedState)
{
    std::vector<HistoryFieldDecl> decls = {
        {"m", 4, 4, 0, 0, 1},
        {"acc", 8, 0, 0, 2, 3},
    };
    GameState st;
    st.build(decls);
    uint64_t fp0 = st.boundedFingerprint();
    st.apply(3, 123);  // accumulator: fingerprint unchanged
    EXPECT_EQ(st.boundedFingerprint(), fp0);
    st.apply(1, 2);
    EXPECT_NE(st.boundedFingerprint(), fp0);
}

TEST(GameState, BlockContentIsStale)
{
    std::vector<HistoryFieldDecl> decls = {{"m", 4, 16, 0, 0, 1}};
    GameState st;
    st.build(decls);
    uint64_t b0 = st.blockContent(0);
    st.apply(1, 1);  // one change: refresh period is 3
    EXPECT_EQ(st.blockContent(0), b0);
    st.apply(1, 2);
    st.apply(1, 3);  // third change -> refresh
    EXPECT_NE(st.blockContent(0), b0);
}

TEST(GameState, ResetRestoresInitialConditions)
{
    std::vector<HistoryFieldDecl> decls = {{"m", 4, 8, 5, 0, 1}};
    GameState st;
    st.build(decls);
    st.apply(1, 7);
    uint64_t fp_dirty = st.boundedFingerprint();
    st.reset();
    EXPECT_EQ(st.get(0), 5u);
    EXPECT_EQ(st.epoch(), 0u);
    EXPECT_NE(st.boundedFingerprint(), fp_dirty);
}

// ----------------------------------------------------------- Registry

TEST(Registry, SevenGamesInComplexityOrder)
{
    const auto &names = allGameNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "colorphun");
    EXPECT_EQ(names.back(), "race_kings");
}

TEST(Registry, UnknownGameFatal)
{
    bool prev = util::setThrowOnError(true);
    EXPECT_THROW(paramsFor("tetris"), std::runtime_error);
    util::setThrowOnError(prev);
}

TEST(Registry, MakeAllGames)
{
    auto games = makeAllGames();
    EXPECT_EQ(games.size(), 7u);
    for (const auto &g : games)
        EXPECT_GT(g->totalEventRate(), 0.0);
}

// ----------------------------------------------- parameterized suite

class GameTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override { game_ = makeGame(GetParam()); }

    /** Run n events through the game, applying truth outputs. */
    std::vector<HandlerExecution>
    drive(size_t n, uint64_t seed = 99)
    {
        util::Rng rng(seed);
        std::vector<HandlerExecution> execs;
        const auto &mix = game_->params().mix;
        for (size_t i = 0; i < n; ++i) {
            const auto &entry = mix[i % mix.size()];
            events::EventObject ev = game_->makeEvent(
                entry.type, static_cast<double>(i) * 0.05, rng);
            HandlerExecution ex = game_->process(ev);
            game_->applyOutputs(ex.outputs);
            execs.push_back(std::move(ex));
        }
        return execs;
    }

    std::unique_ptr<Game> game_;
};

TEST_P(GameTest, EventFieldSizesSumToObjectSize)
{
    for (const auto &spec : game_->params().handlers) {
        uint32_t sum = 0;
        for (const auto &efs : spec.event_fields)
            sum += efs.size_bytes;
        EXPECT_EQ(sum, events::eventObjectBytes(spec.type))
            << events::eventTypeName(spec.type);
    }
}

TEST_P(GameTest, ProcessIsDeterministic)
{
    util::Rng rng(7);
    events::EventObject ev =
        game_->makeEvent(game_->params().mix[0].type, 0.0, rng);
    HandlerExecution a = game_->process(ev);
    HandlerExecution b = game_->process(ev);
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.necessary_hash, b.necessary_hash);
    EXPECT_EQ(a.cpu_instructions, b.cpu_instructions);
    EXPECT_EQ(a.useless, b.useless);
}

TEST_P(GameTest, NoiseFieldsDoNotAffectOutputs)
{
    // Ground-truth property: mutating a non-necessary event field
    // must leave outputs and the necessary hash unchanged.
    util::Rng rng(13);
    const HandlerSpec &spec =
        game_->handler(game_->params().mix[0].type);
    for (int trial = 0; trial < 20; ++trial) {
        events::EventObject ev =
            game_->makeEvent(spec.type, 0.0, rng);
        HandlerExecution base = game_->process(ev);
        for (const auto &efs : spec.event_fields) {
            if (efs.necessary)
                continue;
            events::EventObject mutated = ev;
            for (auto &fv : mutated.fields)
                if (fv.id == efs.fid)
                    fv.value ^= 0x5a5a5a5aULL;
            HandlerExecution mut = game_->process(mutated);
            EXPECT_EQ(mut.outputs, base.outputs)
                << "noise field " << efs.name << " affected outputs";
            EXPECT_EQ(mut.necessary_hash, base.necessary_hash);
            EXPECT_EQ(mut.useless, base.useless);
        }
    }
}

TEST_P(GameTest, NecessaryFieldsDoAffectOutputs)
{
    // Across many draws, changing a necessary field's value must
    // change the necessary hash (and usually the outputs).
    util::Rng rng(17);
    const HandlerSpec &spec =
        game_->handler(game_->params().mix[0].type);
    int hash_changes = 0, trials = 0;
    for (int trial = 0; trial < 20; ++trial) {
        events::EventObject ev =
            game_->makeEvent(spec.type, 0.0, rng);
        HandlerExecution base = game_->process(ev);
        for (const auto &efs : spec.event_fields) {
            if (!efs.necessary)
                continue;
            events::EventObject mutated = ev;
            for (auto &fv : mutated.fields)
                if (fv.id == efs.fid)
                    fv.value = (fv.value + 1) % efs.cardinality;
            HandlerExecution mut = game_->process(mutated);
            ++trials;
            hash_changes += (mut.necessary_hash != base.necessary_hash);
        }
    }
    EXPECT_EQ(hash_changes, trials);
}

TEST_P(GameTest, InputsAndOutputsCanonical)
{
    auto execs = drive(50);
    for (const auto &ex : execs) {
        for (size_t i = 1; i < ex.inputs.size(); ++i)
            EXPECT_LT(ex.inputs[i - 1].id, ex.inputs[i].id);
        for (size_t i = 1; i < ex.outputs.size(); ++i)
            EXPECT_LT(ex.outputs[i - 1].id, ex.outputs[i].id);
    }
}

TEST_P(GameTest, UselessExecutionsWriteNothing)
{
    auto execs = drive(300);
    int useless = 0;
    for (const auto &ex : execs) {
        if (ex.useless) {
            ++useless;
            EXPECT_TRUE(ex.outputs.empty());
            EXPECT_FALSE(ex.state_changed);
        }
    }
    EXPECT_GT(useless, 0);
}

TEST_P(GameTest, CostsArePositiveAndBounded)
{
    auto execs = drive(200);
    for (const auto &ex : execs) {
        EXPECT_GT(ex.cpu_instructions, 0u);
        EXPECT_LT(ex.cpu_instructions, 5'000'000'000ull);
        EXPECT_GT(ex.memory_bytes, 0u);
        EXPECT_GE(ex.maxcpu_fraction, 0.0);
        EXPECT_LE(ex.maxcpu_fraction, 1.0);
        for (const auto &c : ex.ip_calls)
            EXPECT_GT(c.work_units, 0.0);
    }
}

TEST_P(GameTest, StateChangedFlagConsistent)
{
    util::Rng rng(23);
    const auto &mix = game_->params().mix;
    for (int i = 0; i < 100; ++i) {
        const auto &entry = mix[i % mix.size()];
        events::EventObject ev = game_->makeEvent(
            entry.type, i * 0.05, rng);
        HandlerExecution ex = game_->process(ev);
        bool any = false;
        for (const auto &fv : ex.outputs)
            any |= game_->state().wouldChange(fv.id, fv.value);
        EXPECT_EQ(ex.state_changed, any);
        game_->applyOutputs(ex.outputs);
    }
}

TEST_P(GameTest, EventGenerationReproducible)
{
    auto g2 = makeGame(GetParam());
    util::Rng a(31), b(31);
    for (int i = 0; i < 50; ++i) {
        events::EventObject ea = game_->makeEvent(
            game_->params().mix[0].type, i * 0.1, a);
        events::EventObject eb =
            g2->makeEvent(g2->params().mix[0].type, i * 0.1, b);
        EXPECT_EQ(ea.fields, eb.fields);
    }
}

TEST_P(GameTest, ExactRepeatsInPaperBand)
{
    // Paper: 2-5% of full input records exactly repeat. Allow a
    // generous band (1-10%) — it is a stochastic property.
    auto execs = drive(1500, 101);
    std::unordered_set<uint64_t> seen;
    int repeats = 0;
    for (const auto &ex : execs) {
        uint64_t h = events::hashFields(ex.inputs);
        if (!seen.insert(h).second)
            ++repeats;
    }
    double frac = static_cast<double>(repeats) / execs.size();
    EXPECT_GT(frac, 0.005);
    EXPECT_LT(frac, 0.20);
}

TEST_P(GameTest, NecessaryInputIdsMatchDeclaredSpecs)
{
    for (const auto &entry : game_->params().mix) {
        auto ids = game_->necessaryInputIds(entry.type);
        EXPECT_FALSE(ids.empty());
        const HandlerSpec &spec = game_->handler(entry.type);
        size_t expected = spec.necessary_history.size() +
                          spec.scoring_history.size();
        for (const auto &efs : spec.event_fields)
            expected += efs.necessary;
        EXPECT_EQ(ids.size(), expected);
    }
}

TEST_P(GameTest, GatherInputValueCoversNonEventInputs)
{
    auto execs = drive(100);
    for (const auto &ex : execs) {
        for (const auto &fv : ex.inputs) {
            const auto &d = game_->schema().def(fv.id);
            uint64_t v = 0;
            bool ok = game_->gatherInputValue(fv.id, v);
            if (d.in_cat == events::InputCategory::Event) {
                EXPECT_FALSE(ok);
            } else {
                EXPECT_TRUE(ok) << d.name;
            }
        }
    }
}

TEST_P(GameTest, ResetRestoresDeterminism)
{
    auto first = drive(40, 55);
    game_->reset();
    auto second = drive(40, 55);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].inputs, second[i].inputs);
        EXPECT_EQ(first[i].outputs, second[i].outputs);
    }
}

TEST_P(GameTest, RecommendedOverridesNameRealFields)
{
    for (const auto &name :
         game_->params().recommended_overrides) {
        EXPECT_NE(game_->schema().find(name), events::kInvalidField)
            << name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllGames, GameTest,
                         ::testing::ValuesIn(allGameNames()));

// ------------------------------------------------- ground-truth pin

/** Fold one execution, every field, doubles by bit pattern. */
uint64_t
digestExecution(uint64_t h, const HandlerExecution &ex)
{
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    h = util::mixCombine(h, static_cast<uint64_t>(ex.type));
    h = util::mixCombine(h, ex.seq);
    for (const auto *fvs : {&ex.inputs, &ex.outputs}) {
        h = util::mixCombine(h, fvs->size());
        for (const events::FieldValue &fv : *fvs)
            h = util::mixCombine(util::mixCombine(h, fv.id), fv.value);
    }
    h = util::mixCombine(h, ex.necessary_hash);
    h = util::mixCombine(h, ex.cpu_instructions);
    h = util::mixCombine(h, ex.memory_bytes);
    h = util::mixCombine(h, ex.ip_calls.size());
    for (const IpCall &c : ex.ip_calls) {
        h = util::mixCombine(h, static_cast<uint64_t>(c.kind));
        h = util::mixCombine(h, bits(c.work_units));
    }
    h = util::mixCombine(h, bits(ex.maxcpu_fraction));
    return util::mixCombine(
        h, (ex.state_changed ? 1u : 0u) | (ex.useless ? 2u : 0u) |
               (ex.scoring ? 4u : 0u));
}

/**
 * Record a 60 s Baseline session of a game built from @p params,
 * replay it through a fresh instance, and digest every execution.
 * Asserts on the way that input and output ids strictly increase.
 */
uint64_t
replayDigest(const GameParams &params)
{
    Game game(params);
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = 60.0;
    cfg.record_events = true;
    core::SessionResult rec = core::runSession(game, baseline, cfg);
    EXPECT_FALSE(rec.trace.events.empty()) << params.name;

    Game fresh(params);
    trace::Profile profile = trace::Replayer::replay(rec.trace, fresh);
    EXPECT_EQ(profile.records.size(), rec.trace.events.size());
    uint64_t h = 0x9a3e5d16e57ULL;
    for (const HandlerExecution &ex : profile.records) {
        for (size_t i = 1; i < ex.inputs.size(); ++i)
            EXPECT_LT(ex.inputs[i - 1].id, ex.inputs[i].id) << params.name;
        for (size_t i = 1; i < ex.outputs.size(); ++i)
            EXPECT_LT(ex.outputs[i - 1].id, ex.outputs[i].id)
                << params.name;
        h = digestExecution(h, ex);
    }
    return h;
}

// Pins the handler ground truth of every catalog game: a 60 s
// Baseline trace replayed through a fresh game must reproduce every
// HandlerExecution field bit for bit. In.Extern reads are rare (a
// few per 10^4 combos), so each game is pinned once more with them
// on a quarter of the combos. Replay also proves the canonical form
// on long runs: ids strictly increase, so no record has a duplicate.
TEST(Games, ProcessGoldenDigest)
{
    const std::map<std::string, std::pair<uint64_t, uint64_t>> want = {
        {"colorphun", {0xf0ab0437102ea0a5ULL, 0x67c11a02d3ffb9e4ULL}},
        {"memory_game", {0xd5c166bcdc46889cULL, 0x98bc518398d7e0d9ULL}},
        {"candy_crush", {0x040f2d55f065e38cULL, 0x6b6b5dea83ce3ed2ULL}},
        {"greenwall", {0x83ad7a303980d2cdULL, 0x1c07a73a65a30fceULL}},
        {"ab_evolution", {0x06a45fb04d580b39ULL, 0xb0a75746f9d40455ULL}},
        {"chase_whisply", {0xa7345aab2805bca4ULL, 0xdfe888e828218413ULL}},
        {"race_kings", {0xf3f89a1763dcb5d3ULL, 0x70323c272f56944bULL}},
    };
    ASSERT_EQ(want.size(), allGameNames().size());
    for (const std::string &name : allGameNames()) {
        GameParams params = paramsFor(name);
        uint64_t plain = replayDigest(params);
        for (HandlerSpec &spec : params.handlers)
            spec.extern_per_million = 250000;
        uint64_t with_extern = replayDigest(params);
        EXPECT_EQ(plain, want.at(name).first) << name;
        EXPECT_EQ(with_extern, want.at(name).second) << name;
    }
}

// --------------------------------------------------- game specifics

TEST(AbEvolution, PlateauMakesMaxedDragUseless)
{
    auto game = makeGame("ab_evolution");
    const HandlerSpec &drag = game->handler(events::EventType::Drag);
    ASSERT_EQ(drag.plateau_history_field, "stretch");

    // Force the catapult to max stretch.
    events::FieldId stretch_in = game->schema().find("h.stretch");
    events::FieldId stretch_out = game->schema().find("o.stretch");
    ASSERT_NE(stretch_out, events::kInvalidField);
    uint64_t buckets = 0;
    for (const auto &d : game->params().history_fields)
        if (d.name == "stretch")
            buckets = d.buckets;
    game->state().apply(stretch_out, buckets - 1);
    ASSERT_EQ(game->state().get(stretch_in), buckets - 1);

    // Build a drag event with dist in the top quartile.
    util::Rng rng(3);
    events::EventObject ev =
        game->makeEvent(events::EventType::Drag, 0.0, rng);
    for (const auto &efs : drag.event_fields) {
        if (efs.name == "dist") {
            for (auto &fv : ev.fields)
                if (fv.id == efs.fid)
                    fv.value = efs.cardinality - 1;
        }
    }
    HandlerExecution ex = game->process(ev);
    EXPECT_TRUE(ex.useless);
}

TEST(ChaseWhisply, CameraEventsDriveTheIsp)
{
    auto game = makeGame("chase_whisply");
    util::Rng rng(5);
    events::EventObject ev =
        game->makeEvent(events::EventType::CameraFrame, 0.0, rng);
    HandlerExecution ex = game->process(ev);
    bool uses_isp = false;
    for (const auto &c : ex.ip_calls)
        uses_isp |= (c.kind == soc::IpKind::CameraIsp);
    EXPECT_TRUE(uses_isp);
}

TEST(MemoryGame, WideNecessaryState)
{
    auto game = makeGame("memory_game");
    auto ids = game->necessaryInputIds(events::EventType::Touch);
    uint64_t bytes = 0;
    for (auto fid : ids)
        bytes += game->schema().def(fid).size_bytes;
    // The board rows make the necessary set much wider than other
    // games' (the Fig. 11c overhead outlier).
    EXPECT_GT(bytes, 1000u);
}

TEST(GameValidation, MismatchedHandlerCountFatal)
{
    bool prev = util::setThrowOnError(true);
    GameParams p = makeColorphun();
    p.handlers.clear();
    EXPECT_THROW(Game{p}, std::runtime_error);
    util::setThrowOnError(prev);
}

TEST(GameValidation, UnknownHistoryFieldFatal)
{
    bool prev = util::setThrowOnError(true);
    GameParams p = makeColorphun();
    p.handlers[0].necessary_history.push_back("no_such_field");
    EXPECT_THROW(Game{p}, std::runtime_error);
    util::setThrowOnError(prev);
}

TEST(GameValidation, WrongEventFieldSizesFatal)
{
    bool prev = util::setThrowOnError(true);
    GameParams p = makeColorphun();
    p.handlers[0].event_fields[0].size_bytes += 2;
    EXPECT_THROW(Game{p}, std::runtime_error);
    util::setThrowOnError(prev);
}

}  // namespace
}  // namespace games
}  // namespace snip
