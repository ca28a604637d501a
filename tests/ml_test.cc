/**
 * @file
 * Tests for the ML layer on synthetic data with known ground truth:
 * dataset construction, the table predictor's exact-match
 * semantics, decision tree / random forest learning, PFI importance
 * ranking, and the necessary-input selector recovering planted
 * necessary features.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "ml/chunked_dataset.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/feature_selection.h"
#include "ml/pfi.h"
#include "ml/random_forest.h"
#include "ml/table_predictor.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace snip {
namespace ml {
namespace {

/**
 * Synthetic world: inputs a (necessary, 4 values), b (necessary,
 * 3 values), n (noise, 16 values), h (big noisy history blob).
 * Output label = f(a, b). Returns records + schema.
 */
struct Synthetic {
    events::FieldSchema schema;
    events::FieldId fa, fb, fn, fh, out;
    std::vector<games::HandlerExecution> records;

    explicit Synthetic(size_t n_records, uint64_t seed = 1)
    {
        fa = schema.addInput("a", events::InputCategory::Event, 2);
        fb = schema.addInput("b", events::InputCategory::History, 4);
        fn = schema.addInput("n", events::InputCategory::Event, 8);
        fh = schema.addInput("h", events::InputCategory::History,
                             4096);
        out = schema.addOutput("o", events::OutputCategory::History,
                               8);
        util::Rng rng(seed);
        for (size_t i = 0; i < n_records; ++i) {
            games::HandlerExecution r;
            r.type = events::EventType::Touch;
            r.seq = i;
            uint64_t a = rng.uniformInt(0, 3);
            uint64_t b = rng.uniformInt(0, 2);
            uint64_t noise = rng.uniformInt(0, 15);
            uint64_t blob = util::mix64(i);  // row-id-like feature
            r.inputs = {{fa, a}, {fb, b}, {fn, noise}, {fh, blob}};
            r.outputs = {{out, util::mixCombine(a * 31 + b, 7)}};
            r.cpu_instructions = 1000;
            records.push_back(std::move(r));
        }
    }

    std::vector<const games::HandlerExecution *> ptrs() const
    {
        std::vector<const games::HandlerExecution *> p;
        for (const auto &r : records)
            p.push_back(&r);
        return p;
    }
};

// ------------------------------------------------------------ Dataset

TEST(DatasetTest, ColumnsAndValues)
{
    Synthetic syn(50);
    Dataset ds(syn.ptrs(), syn.schema);
    EXPECT_EQ(ds.numRows(), 50u);
    EXPECT_EQ(ds.numFeatures(), 4u);
    size_t col_a = ds.columnOf(syn.fa);
    ASSERT_NE(col_a, SIZE_MAX);
    EXPECT_EQ(ds.featureField(col_a), syn.fa);
    EXPECT_EQ(ds.value(0, col_a), syn.records[0].inputs[0].value);
    EXPECT_EQ(ds.columnOf(9999), SIZE_MAX);
    EXPECT_EQ(ds.weight(0), 1000u);
    EXPECT_EQ(ds.totalWeight(), 50u * 1000u);
}

TEST(DatasetTest, AbsentMarkerForMissingFields)
{
    Synthetic syn(10);
    // Remove field fn from half the records.
    for (size_t i = 0; i < syn.records.size(); i += 2) {
        auto &in = syn.records[i].inputs;
        in.erase(in.begin() + 2);
    }
    Dataset ds(syn.ptrs(), syn.schema);
    size_t col_n = ds.columnOf(syn.fn);
    ASSERT_NE(col_n, SIZE_MAX);
    EXPECT_EQ(ds.value(0, col_n), kAbsent);
    EXPECT_NE(ds.value(1, col_n), kAbsent);
}

TEST(DatasetTest, LabelIsOutputSignature)
{
    Synthetic syn(30);
    Dataset ds(syn.ptrs(), syn.schema);
    for (size_t i = 0; i < ds.numRows(); ++i) {
        EXPECT_EQ(ds.label(i),
                  events::hashFields(syn.records[i].outputs));
    }
}

TEST(DatasetTest, FeatureBytes)
{
    Synthetic syn(5);
    Dataset ds(syn.ptrs(), syn.schema);
    EXPECT_EQ(ds.featureBytes(ds.columnOf(syn.fh)), 4096u);
    std::vector<size_t> all(ds.numFeatures());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    EXPECT_EQ(ds.bytesOfColumns(all), 2u + 4u + 8u + 4096u);
}

// ----------------------------------------------------- TablePredictor

TEST(TablePredictorTest, PerfectOnTrainingWithAllFeatures)
{
    Synthetic syn(200);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2, 3};
    TablePredictor tp;
    tp.train(ds, cols);
    EXPECT_DOUBLE_EQ(weightedErrorRate(tp, ds), 0.0);
}

TEST(TablePredictorTest, NecessaryOnlyStillPerfect)
{
    Synthetic syn(200);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    TablePredictor tp;
    tp.train(ds, cols);
    EXPECT_DOUBLE_EQ(weightedErrorRate(tp, ds), 0.0);
    // 4 x 3 joint values -> at most 12 keys.
    EXPECT_LE(tp.tableRows(), 12u);
}

TEST(TablePredictorTest, MissingNecessaryFeatureErrs)
{
    Synthetic syn(400);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fb)};  // drop a
    TablePredictor tp;
    tp.train(ds, cols);
    EXPECT_GT(weightedErrorRate(tp, ds), 0.3);
    EXPECT_GT(tp.ambiguousWeightFraction(), 0.5);
    EXPECT_GT(tp.meanLabelsPerKey(), 1.5);
}

TEST(TablePredictorTest, StrictLookupMissesUnseenKeys)
{
    Synthetic syn(20);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fh)};  // row ids
    std::vector<size_t> train_rows = {0, 1, 2, 3, 4};
    TablePredictor tp;
    tp.trainOnRows(ds, cols, train_rows);
    uint64_t label;
    EXPECT_TRUE(tp.lookupLabel(ds, 0, label));
    EXPECT_FALSE(tp.lookupLabel(ds, 10, label));
}

TEST(TablePredictorTest, InsertRowFirstWins)
{
    Synthetic syn(20);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    TablePredictor tp;
    tp.trainOnRows(ds, cols, {});
    tp.insertRow(ds, 3);
    uint64_t label;
    ASSERT_TRUE(tp.lookupLabel(ds, 3, label));
    EXPECT_EQ(label, ds.label(3));
    // Re-inserting a row with the same key does not overwrite.
    size_t rows_before = tp.tableRows();
    tp.insertRow(ds, 3);
    EXPECT_EQ(tp.tableRows(), rows_before);
}

TEST(TablePredictorTest, PredictRowReturnsRepresentative)
{
    Synthetic syn(100);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    TablePredictor tp;
    tp.train(ds, cols);
    size_t repr = tp.predictRow(ds, 7);
    ASSERT_NE(repr, SIZE_MAX);
    EXPECT_EQ(ds.label(repr), ds.label(7));
}

TEST(TablePredictorTest, PredictRowsMatchesPerRowPredict)
{
    Synthetic syn(300);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    TablePredictor tp;
    tp.train(ds, cols);

    std::vector<uint64_t> batched(ds.numRows());
    tp.predictRows(ds, 0, ds.numRows(), batched.data());
    for (size_t r = 0; r < ds.numRows(); ++r)
        EXPECT_EQ(batched[r], tp.predict(ds, r)) << "row " << r;

    // Sub-range placement: out[r - begin] receives row r.
    std::vector<uint64_t> window(20);
    tp.predictRows(ds, 50, 70, window.data());
    for (size_t r = 50; r < 70; ++r)
        EXPECT_EQ(window[r - 50], tp.predict(ds, r));

    // Override path: per-row override values, indexed by absolute
    // row (the PFI permuted-column calling convention).
    size_t col_a = ds.columnOf(syn.fa);
    std::vector<uint64_t> shifted(ds.numRows());
    for (size_t r = 0; r < ds.numRows(); ++r)
        shifted[r] = ds.value((r + 1) % ds.numRows(), col_a);
    tp.predictRows(ds, 0, ds.numRows(), batched.data(), col_a,
                   shifted.data());
    for (size_t r = 0; r < ds.numRows(); ++r)
        EXPECT_EQ(batched[r], tp.predict(ds, r, col_a, shifted[r]));
}

TEST(DatasetTest, ViewIdsAreDistinct)
{
    Synthetic syn(10);
    Dataset a(syn.ptrs(), syn.schema);
    Dataset b(syn.ptrs(), syn.schema);
    EXPECT_NE(a.id(), 0u);
    EXPECT_NE(a.id(), b.id());
}

// A trial drop derives its keys by subtracting one column's term;
// the model it trains must be the one a from-scratch retrain on the
// trial set builds, on the trained view and on any other view.
TEST(TablePredictorTest, DroppedColumnKeysMatchRetrain)
{
    Synthetic syn(300);
    Dataset ds(syn.ptrs(), syn.schema);
    Dataset other(syn.ptrs(), syn.schema);
    std::vector<size_t> all = {0, 1, 2, 3};
    std::vector<size_t> train_rows;
    for (size_t r = 0; r < 200; ++r)
        train_rows.push_back(r);

    for (size_t drop : all) {
        std::vector<size_t> trial;
        for (size_t c : all)
            if (c != drop)
                trial.push_back(c);
        std::vector<uint64_t> keys = TablePredictor::rowKeys(ds, all);
        TablePredictor::dropColumn(ds, drop, keys);
        EXPECT_EQ(keys, TablePredictor::rowKeys(ds, trial));

        TablePredictor derived, fresh;
        derived.trainOnKeys(ds, trial, keys, train_rows);
        fresh.trainOnRows(other, trial, train_rows);
        EXPECT_EQ(derived.fingerprint(), fresh.fingerprint())
            << "drop " << drop;
        EXPECT_EQ(derived.tableRows(), fresh.tableRows());
        for (size_t r = 0; r < ds.numRows(); ++r) {
            ASSERT_EQ(derived.predict(ds, r), fresh.predict(other, r))
                << "drop " << drop << " row " << r;
            ASSERT_EQ(derived.predictRow(ds, r),
                      fresh.predictRow(other, r));
            uint64_t la = 0, lb = 0;
            ASSERT_EQ(derived.lookupLabel(ds, r, la),
                      fresh.lookupLabel(other, r, lb));
            EXPECT_EQ(la, lb);
        }
    }
}

// The stored-key override path (one term swapped per row) must match
// the per-row recomputed key of a different view, for a selected and
// an unselected override column.
TEST(TablePredictorTest, OverrideKeyPathMatchesPerRowPredict)
{
    Synthetic syn(300);
    Dataset ds(syn.ptrs(), syn.schema);
    Dataset other(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    TablePredictor tp;
    tp.train(ds, cols);

    std::vector<uint64_t> plain(ds.numRows());
    tp.predictRows(ds, 0, ds.numRows(), plain.data());
    for (size_t col : {ds.columnOf(syn.fa), ds.columnOf(syn.fn)}) {
        std::vector<uint64_t> shifted(ds.numRows());
        for (size_t r = 0; r < ds.numRows(); ++r)
            shifted[r] = ds.value((r + 7) % ds.numRows(), col);
        std::vector<uint64_t> bound(ds.numRows()), unbound(ds.numRows());
        tp.predictRows(ds, 0, ds.numRows(), bound.data(), col,
                       shifted.data());
        tp.predictRows(other, 0, ds.numRows(), unbound.data(), col,
                       shifted.data());
        EXPECT_EQ(bound, unbound) << "col " << col;
        for (size_t r = 0; r < ds.numRows(); ++r) {
            EXPECT_EQ(bound[r], tp.predict(ds, r, col, shifted[r]));
            EXPECT_EQ(bound[r], tp.predict(other, r, col, shifted[r]));
        }
        if (col == ds.columnOf(syn.fn))
            EXPECT_EQ(bound, plain) << "unselected override";
        else
            EXPECT_NE(bound, plain) << "selected override";
    }
}

// Stored keys belong to the trained view alone: a view with other
// contents (here a different draw of the same a, b -> label world)
// must be keyed from its own cells.
TEST(TablePredictorTest, OtherViewRecomputesKeys)
{
    Synthetic train_syn(300, 1), eval_syn(120, 2);
    Dataset train_ds(train_syn.ptrs(), train_syn.schema);
    Dataset eval_ds(eval_syn.ptrs(), eval_syn.schema);
    std::vector<size_t> cols = {train_ds.columnOf(train_syn.fa),
                                train_ds.columnOf(train_syn.fb)};
    TablePredictor tp;
    tp.train(train_ds, cols);
    EXPECT_DOUBLE_EQ(weightedErrorRate(tp, eval_ds), 0.0);
    for (size_t r = 0; r < eval_ds.numRows(); ++r) {
        uint64_t label = 0;
        ASSERT_TRUE(tp.lookupLabel(eval_ds, r, label)) << r;
        EXPECT_EQ(label, eval_ds.label(r));
    }
}

TEST(TablePredictorDeathTest, OverrideWithoutValuesPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Synthetic syn(20);
    Dataset ds(syn.ptrs(), syn.schema);
    TablePredictor tp;
    tp.train(ds, {0, 1});
    uint64_t out[4];
    EXPECT_DEATH(tp.predictRows(ds, 0, 4, out, 0, nullptr),
                 "override_col without override_values");
}

// Equal-weight labels under one key, rows passed out of order: the
// majority is the smaller label, the representative its first row in
// `rows` order, and the fallback follows the same rules.
TEST(TablePredictorTest, TieBreaksSmallestLabelFirstRow)
{
    events::FieldSchema schema;
    events::FieldId fk =
        schema.addInput("k", events::InputCategory::Event, 4);
    events::FieldId fo =
        schema.addOutput("o", events::OutputCategory::History, 8);
    // Rows 0..3 share key k=1 with labels x, y, y, x; row 4 (k=2) is
    // never trained on.
    const uint64_t outs[] = {10, 20, 20, 10, 10};
    const uint64_t ks[] = {1, 1, 1, 1, 2};
    std::vector<games::HandlerExecution> recs(5);
    std::vector<const games::HandlerExecution *> ptrs;
    for (size_t i = 0; i < recs.size(); ++i) {
        recs[i].type = events::EventType::Touch;
        recs[i].inputs = {{fk, ks[i]}};
        recs[i].outputs = {{fo, outs[i]}};
        recs[i].cpu_instructions = 500;
        ptrs.push_back(&recs[i]);
    }
    Dataset ds(ptrs, schema);
    uint64_t small = std::min(ds.label(0), ds.label(1));
    std::vector<size_t> rows = {3, 2, 1, 0};
    // First row of the smaller label in `rows` order.
    size_t first = ds.label(3) == small ? 3 : 2;

    TablePredictor tp;
    tp.trainOnRows(ds, {0}, rows);
    EXPECT_EQ(tp.tableRows(), 1u);
    EXPECT_EQ(tp.predict(ds, 0), small);
    EXPECT_EQ(tp.predictRow(ds, 0), first);
    EXPECT_DOUBLE_EQ(tp.ambiguousWeightFraction(), 1.0);
    EXPECT_EQ(tp.predict(ds, 4), small);       // fallback label
    EXPECT_EQ(tp.predictRow(ds, 4), first);    // fallback row
}

// Training on no rows must not inherit the previous training's
// fallback or ambiguity.
TEST(TablePredictorTest, EmptyTrainingResetsFallback)
{
    Synthetic syn(200);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fb)};
    TablePredictor tp;
    tp.train(ds, cols);
    ASSERT_GT(tp.ambiguousWeightFraction(), 0.0);
    ASSERT_NE(tp.predict(ds, 0), kNoLabel);

    tp.trainOnRows(ds, cols, {});
    EXPECT_EQ(tp.tableRows(), 0u);
    EXPECT_EQ(tp.predict(ds, 0), kNoLabel);
    EXPECT_EQ(tp.predictRow(ds, 0), SIZE_MAX);
    EXPECT_DOUBLE_EQ(tp.ambiguousWeightFraction(), 0.0);
}

// ------------------------------------------------------ DecisionTree

TEST(DecisionTreeTest, LearnsSeparableFunction)
{
    Synthetic syn(600);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    DecisionTree tree;
    tree.train(ds, cols);
    EXPECT_LT(weightedErrorRate(tree, ds), 0.02);
    EXPECT_GT(tree.nodeCount(), 3u);
}

TEST(DecisionTreeTest, RespectsMaxDepth)
{
    Synthetic syn(600);
    Dataset ds(syn.ptrs(), syn.schema);
    TreeConfig cfg;
    cfg.max_depth = 1;
    DecisionTree stump(cfg);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    stump.train(ds, cols);
    EXPECT_LE(stump.nodeCount(), 3u);
}

TEST(DecisionTreeTest, OverrideValueChangesPath)
{
    Synthetic syn(600);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    DecisionTree tree;
    tree.train(ds, cols);
    // Overriding the necessary column with varying values must
    // produce at least two distinct predictions.
    std::set<uint64_t> preds;
    for (uint64_t v = 0; v < 4; ++v)
        preds.insert(tree.predict(ds, 0, ds.columnOf(syn.fa), v));
    EXPECT_GE(preds.size(), 2u);
}

// ------------------------------------------------------ RandomForest

TEST(RandomForestTest, LearnsSeparableFunction)
{
    Synthetic syn(600);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2, 3};
    ForestConfig cfg;
    cfg.num_trees = 12;
    RandomForest forest(cfg);
    forest.train(ds, cols);
    EXPECT_EQ(forest.treeCount(), 12u);
    EXPECT_LT(weightedErrorRate(forest, ds), 0.1);
}

TEST(RandomForestTest, PredictRowsMatchesPerRowPredict)
{
    Synthetic syn(400);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2, 3};
    ForestConfig cfg;
    cfg.num_trees = 9;
    RandomForest forest(cfg);
    forest.train(ds, cols);

    std::vector<uint64_t> batched(ds.numRows());
    forest.predictRows(ds, 0, ds.numRows(), batched.data());
    for (size_t r = 0; r < ds.numRows(); ++r)
        EXPECT_EQ(batched[r], forest.predict(ds, r)) << "row " << r;

    // A range that is not block-aligned (exercises the tail of the
    // kVoteBlock loop) placed at out[r - begin].
    std::vector<uint64_t> window(77);
    forest.predictRows(ds, 13, 90, window.data());
    for (size_t r = 13; r < 90; ++r)
        EXPECT_EQ(window[r - 13], forest.predict(ds, r));

    // Override path with per-row values (absolute-row indexing).
    size_t col_a = ds.columnOf(syn.fa);
    std::vector<uint64_t> shifted(ds.numRows());
    for (size_t r = 0; r < ds.numRows(); ++r)
        shifted[r] = ds.value((r + 7) % ds.numRows(), col_a);
    forest.predictRows(ds, 0, ds.numRows(), batched.data(), col_a,
                       shifted.data());
    for (size_t r = 0; r < ds.numRows(); ++r) {
        EXPECT_EQ(batched[r],
                  forest.predict(ds, r, col_a, shifted[r]))
            << "row " << r;
    }
}

TEST(RandomForestTest, TrainingRecordsObsMetrics)
{
    Synthetic syn(400);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2, 3};
    obs::Registry reg;
    ForestConfig cfg;
    cfg.num_trees = 6;
    cfg.obs = &reg;
    RandomForest forest(cfg);
    forest.train(ds, cols);
    EXPECT_EQ(reg.counterValue("shrink.forest.trees"), 6u);
    ASSERT_NE(reg.findTimer("span.train_forest"), nullptr);
    EXPECT_EQ(reg.findTimer("span.train_forest")->count(), 1u);

    // PFI attributes per-task work through the same registry.
    PfiConfig pcfg;
    pcfg.obs = &reg;
    computePfi(forest, ds, cols, pcfg);
    // One task per (feature, repeat).
    uint64_t tasks =
        cols.size() * static_cast<uint64_t>(pcfg.repeats);
    EXPECT_EQ(reg.counterValue("shrink.pfi.tasks"), tasks);
    ASSERT_NE(reg.findTimer("shrink.pfi.task_s"), nullptr);
    EXPECT_EQ(reg.findTimer("shrink.pfi.task_s")->count(), tasks);
    EXPECT_GE(reg.gaugeValue("shrink.pfi.workers"), 1.0);
}

TEST(RandomForestTest, TrainDeterministicAcrossThreadCounts)
{
    Synthetic syn(500);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2, 3};

    ForestConfig c1;
    c1.num_trees = 10;
    c1.threads = 1;
    RandomForest f1(c1);
    f1.train(ds, cols);

    ForestConfig c8 = c1;
    c8.threads = 8;
    RandomForest f8(c8);
    f8.train(ds, cols);

    ASSERT_EQ(f1.treeCount(), f8.treeCount());
    EXPECT_EQ(f1.labelCount(), f8.labelCount());
    for (size_t r = 0; r < ds.numRows(); ++r) {
        EXPECT_EQ(f1.predict(ds, r), f8.predict(ds, r))
            << "row " << r;
        EXPECT_EQ(f1.predictRow(ds, r), f8.predictRow(ds, r))
            << "row " << r;
    }
}

/**
 * predictRow must return a representative of the *majority-vote*
 * label, not re-derive a possibly different answer (the old
 * implementation re-descended every tree after predict() had
 * already tallied the votes).
 */
TEST(RandomForestTest, PredictRowRepresentativeCarriesVotedLabel)
{
    Synthetic syn(400);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2, 3};
    ForestConfig cfg;
    cfg.num_trees = 7;
    RandomForest forest(cfg);
    forest.train(ds, cols);
    for (size_t r = 0; r < ds.numRows(); ++r) {
        size_t repr = forest.predictRow(ds, r);
        ASSERT_NE(repr, SIZE_MAX) << "row " << r;
        EXPECT_EQ(ds.label(repr), forest.predict(ds, r))
            << "row " << r;
    }
}

// ---------------------------------------------------------------- PFI

TEST(PfiTest, NecessaryFeaturesRankAboveNoise)
{
    Synthetic syn(800);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb),
                                ds.columnOf(syn.fn)};
    TablePredictor tp;
    tp.train(ds, cols);
    PfiResult pfi = computePfi(tp, ds, cols);
    EXPECT_DOUBLE_EQ(pfi.base_error, 0.0);
    // Permuting a or b destroys predictions strictly more than
    // permuting the (coarser) noise column would be expected to...
    // with an exact-match table all permutations cause misses, but
    // necessary columns additionally cause wrong outputs. Require
    // they are at least comparable and positive.
    EXPECT_GT(pfi.importance[0], 0.0);
    EXPECT_GT(pfi.importance[1], 0.0);
}

TEST(PfiTest, DeterministicForSeed)
{
    Synthetic syn(300);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2};
    TablePredictor tp;
    tp.train(ds, cols);
    PfiConfig cfg;
    cfg.seed = 99;
    PfiResult a = computePfi(tp, ds, cols, cfg);
    PfiResult b = computePfi(tp, ds, cols, cfg);
    EXPECT_EQ(a.importance, b.importance);
}

TEST(PfiTest, DeterministicAcrossThreadCounts)
{
    Synthetic syn(400);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2, 3};
    ForestConfig fcfg;
    fcfg.num_trees = 8;
    RandomForest forest(fcfg);
    forest.train(ds, cols);

    PfiConfig c1;
    c1.seed = 42;
    c1.threads = 1;
    PfiConfig c8 = c1;
    c8.threads = 8;
    PfiResult a = computePfi(forest, ds, cols, c1);
    PfiResult b = computePfi(forest, ds, cols, c8);
    EXPECT_EQ(a.base_error, b.base_error);
    EXPECT_EQ(a.importance, b.importance);  // bitwise, not approx
}

/**
 * Per-column permutation streams are keyed by column id, so the
 * importance of a column does not depend on which other columns are
 * computed alongside it — the property that makes selection-side
 * PFI caching exact.
 */
TEST(PfiTest, ColumnImportanceIndependentOfSubset)
{
    Synthetic syn(300);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2};
    TablePredictor tp;
    tp.train(ds, cols);
    PfiConfig cfg;
    cfg.seed = 77;
    PfiResult full = computePfi(tp, ds, cols, cfg);
    PfiResult solo = computePfi(tp, ds, {1}, cfg);
    ASSERT_EQ(solo.importance.size(), 1u);
    EXPECT_EQ(solo.importance[0], full.importance[1]);  // bitwise
}

// ------------------------------------------------- FeatureSelection

TEST(SelectionTest, RecoversPlantedNecessarySet)
{
    Synthetic syn(1200);
    Dataset ds(syn.ptrs(), syn.schema);
    SelectionConfig cfg;
    cfg.max_error = 0.002;
    cfg.max_conditional_error = 0.012;
    SelectionResult r = selectNecessaryInputs(ds, cfg);
    // Must keep a and b; must drop the 4 kB row-id blob.
    EXPECT_NE(std::find(r.selected.begin(), r.selected.end(), syn.fa),
              r.selected.end());
    EXPECT_NE(std::find(r.selected.begin(), r.selected.end(), syn.fb),
              r.selected.end());
    EXPECT_EQ(std::find(r.selected.begin(), r.selected.end(), syn.fh),
              r.selected.end());
    EXPECT_LE(r.selected_bytes, 14u);
    EXPECT_LE(r.selected_error, 0.002);
    EXPECT_GT(r.selected_hit_rate, 0.8);
}

TEST(SelectionTest, CurveBytesMonotonicallyDecrease)
{
    Synthetic syn(400);
    Dataset ds(syn.ptrs(), syn.schema);
    SelectionResult r = selectNecessaryInputs(ds);
    uint64_t prev = ~0ull;
    for (const auto &step : r.curve) {
        EXPECT_LT(step.remaining_bytes, prev);
        prev = step.remaining_bytes;
    }
    EXPECT_FALSE(r.curve.empty());
}

TEST(SelectionTest, ForcedKeepHonored)
{
    Synthetic syn(400);
    Dataset ds(syn.ptrs(), syn.schema);
    SelectionConfig cfg;
    cfg.forced_keep = {syn.fn};  // force the noise field
    SelectionResult r = selectNecessaryInputs(ds, cfg);
    EXPECT_NE(std::find(r.selected.begin(), r.selected.end(), syn.fn),
              r.selected.end());
}

TEST(SelectionTest, TailExploresPastTheKnee)
{
    Synthetic syn(800);
    Dataset ds(syn.ptrs(), syn.schema);
    SelectionConfig cfg;
    cfg.max_error = 0.002;
    cfg.max_conditional_error = 0.012;
    SelectionResult r = selectNecessaryInputs(ds, cfg);
    // The exploratory tail must record at least one step whose
    // error exceeds the budget (the Fig. 9 ramp).
    bool past_knee = false;
    for (const auto &s : r.curve)
        past_knee |= (s.error > cfg.max_error);
    EXPECT_TRUE(past_knee);
}

TEST(SelectionTest, TinyProfileStillTerminates)
{
    Synthetic syn(8);
    Dataset ds(syn.ptrs(), syn.schema);
    SelectionResult r = selectNecessaryInputs(ds);
    EXPECT_FALSE(r.selected.empty());
}

/**
 * The cached-PFI fast path must be invisible in the output: because
 * per-column PFI streams are keyed by column id, recomputing only
 * the still-droppable columns at each refresh yields the same
 * SelectionResult as recomputing the full matrix every time.
 */
TEST(SelectionTest, CachedPfiMatchesFullRecompute)
{
    Synthetic syn(900);
    Dataset ds(syn.ptrs(), syn.schema);
    SelectionConfig cached;
    cached.max_error = 0.002;
    cached.max_conditional_error = 0.012;
    cached.cache_pfi = true;
    SelectionConfig full = cached;
    full.cache_pfi = false;

    SelectionResult a = selectNecessaryInputs(ds, cached);
    SelectionResult b = selectNecessaryInputs(ds, full);

    EXPECT_EQ(a.selected, b.selected);
    EXPECT_EQ(a.selected_bytes, b.selected_bytes);
    EXPECT_EQ(a.selected_error, b.selected_error);
    EXPECT_EQ(a.selected_hit_rate, b.selected_hit_rate);
    EXPECT_EQ(a.full_error, b.full_error);
    EXPECT_EQ(a.full_bytes, b.full_bytes);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_EQ(a.curve[i].dropped, b.curve[i].dropped);
        EXPECT_EQ(a.curve[i].remaining_bytes,
                  b.curve[i].remaining_bytes);
        EXPECT_EQ(a.curve[i].error, b.curve[i].error);
        EXPECT_EQ(a.curve[i].hit_rate, b.curve[i].hit_rate);
    }
}

// Parameterized: selection quality vs dataset size.
class SelectionSizeTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SelectionSizeTest, ErrorWithinBudget)
{
    Synthetic syn(GetParam(), GetParam() * 13 + 7);
    Dataset ds(syn.ptrs(), syn.schema);
    SelectionConfig cfg;
    cfg.max_error = 0.002;
    cfg.max_conditional_error = 0.012;
    SelectionResult r = selectNecessaryInputs(ds, cfg);
    EXPECT_LE(r.selected_error, cfg.max_error);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SelectionSizeTest,
                         ::testing::Values(32, 100, 400, 1500));

// ----------------------------------------------------- ChunkedDataset

/** Synthetic records encoded as an SNCT v2 training trace. */
std::shared_ptr<const trace::ColumnarLog>
trainingLog(const Synthetic &syn)
{
    trace::Profile p;
    p.game = "synthetic";
    p.records = syn.records;
    auto bytes = std::make_shared<std::vector<uint8_t>>();
    util::Status st =
        trace::ColumnarLog::encodeTraining(p, bytes.get());
    EXPECT_TRUE(st.ok()) << st.message();
    auto log = trace::ColumnarLog::attach(bytes->data(),
                                          bytes->size(), bytes);
    EXPECT_TRUE(log.ok()) << log.status().message();
    return log.value();
}

void
expectSameSelection(const SelectionResult &a, const SelectionResult &b)
{
    EXPECT_EQ(a.selected, b.selected);
    EXPECT_EQ(a.selected_bytes, b.selected_bytes);
    EXPECT_EQ(a.selected_error, b.selected_error);
    EXPECT_EQ(a.selected_hit_rate, b.selected_hit_rate);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_EQ(a.curve[i].dropped, b.curve[i].dropped);
        EXPECT_EQ(a.curve[i].error, b.curve[i].error);
    }
}

// The mmap-shaped view must be cell-for-cell the in-memory Dataset:
// same columns, values, absent markers, labels, weights — and
// therefore train bitwise-identical models and selections.
TEST(ChunkedDatasetTest, MatchesInMemoryDataset)
{
    Synthetic syn(400);
    // Punch holes so the absent marker crosses the format too.
    for (size_t i = 0; i < syn.records.size(); i += 3)
        syn.records[i].inputs.erase(syn.records[i].inputs.begin() +
                                    2);
    Dataset mem(syn.ptrs(), syn.schema);
    auto log = trainingLog(syn);
    auto cds = ChunkedDataset::attach(log, events::EventType::Touch,
                                      syn.schema);
    ASSERT_TRUE(cds.ok()) << cds.status().message();
    const ChunkedDataset &ch = *cds.value();

    ASSERT_EQ(ch.numRows(), mem.numRows());
    ASSERT_EQ(ch.numFeatures(), mem.numFeatures());
    EXPECT_EQ(ch.totalWeight(), mem.totalWeight());
    for (size_t c = 0; c < mem.numFeatures(); ++c) {
        EXPECT_EQ(ch.featureField(c), mem.featureField(c));
        for (size_t r = 0; r < mem.numRows(); ++r)
            ASSERT_EQ(ch.value(r, c), mem.value(r, c))
                << "row " << r << " col " << c;
    }
    for (size_t r = 0; r < mem.numRows(); ++r) {
        ASSERT_EQ(ch.label(r), mem.label(r));
        ASSERT_EQ(ch.weight(r), mem.weight(r));
    }

    std::vector<size_t> cols(mem.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;
    ForestConfig fc;
    fc.num_trees = 8;
    RandomForest fm(fc), fch(fc);
    fm.train(mem, cols);
    fch.train(ch, cols);
    EXPECT_EQ(fm.fingerprint(), fch.fingerprint());

    SelectionConfig sc;
    expectSameSelection(selectNecessaryInputs(mem, sc),
                        selectNecessaryInputs(ch, sc));
}

// Row keys are a function of cell values only, so a table trained
// on the mapped view is the in-memory one.
TEST(ChunkedDatasetTest, TablePredictorMatchesInMemory)
{
    Synthetic syn(400);
    for (size_t i = 0; i < syn.records.size(); i += 3)
        syn.records[i].inputs.erase(syn.records[i].inputs.begin() +
                                    2);
    Dataset mem(syn.ptrs(), syn.schema);
    auto log = trainingLog(syn);
    ChunkedConfig cc;
    cc.block_rows = 64;
    auto cds = ChunkedDataset::attach(log, events::EventType::Touch,
                                      syn.schema, cc);
    ASSERT_TRUE(cds.ok()) << cds.status().message();
    const ChunkedDataset &ch = *cds.value();

    std::vector<size_t> cols = {0, 1, 2};
    EXPECT_EQ(TablePredictor::rowKeys(mem, cols),
              TablePredictor::rowKeys(ch, cols));
    TablePredictor tm, tc;
    tm.train(mem, cols);
    tc.train(ch, cols);
    EXPECT_EQ(tm.fingerprint(), tc.fingerprint());
    for (size_t r = 0; r < mem.numRows(); ++r)
        ASSERT_EQ(tm.predict(mem, r), tc.predict(ch, r)) << r;
}

// materializeRecord must reconstruct exactly the records the table
// prefill consumes: canonical input/output order, holes skipped,
// weight carried as instructions.
TEST(ChunkedDatasetTest, MaterializeRecordRoundTrip)
{
    Synthetic syn(60);
    for (size_t i = 1; i < syn.records.size(); i += 4)
        syn.records[i].inputs.erase(syn.records[i].inputs.begin());
    auto log = trainingLog(syn);
    auto cds = ChunkedDataset::attach(log, events::EventType::Touch,
                                      syn.schema);
    ASSERT_TRUE(cds.ok()) << cds.status().message();
    games::HandlerExecution rec;
    for (size_t r = 0; r < syn.records.size(); ++r) {
        cds.value()->materializeRecord(r, &rec);
        EXPECT_EQ(rec.type, syn.records[r].type);
        EXPECT_EQ(rec.inputs, syn.records[r].inputs) << r;
        EXPECT_EQ(rec.outputs, syn.records[r].outputs) << r;
        EXPECT_EQ(rec.cpu_instructions,
                  syn.records[r].cpu_instructions);
    }
}

// The digest-equality contract, block-size axis: any block geometry
// ({1, 64, 4096, all-rows}) must produce bitwise-identical forests
// and selections — noteStreamed cadence only drops clean pages,
// never changes bytes.
TEST(ChunkedDatasetTest, BlockSizeInvarianceFuzz)
{
    Synthetic syn(500, 9);
    auto log = trainingLog(syn);
    std::vector<size_t> blocks = {1, 64, 4096, syn.records.size()};

    uint64_t want_fp = 0;
    SelectionResult want_sel;
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
        ChunkedConfig cfg;
        cfg.block_rows = blocks[bi];
        cfg.residency_budget_bytes = 1 << 16;  // aggressive drops
        auto cds = ChunkedDataset::attach(
            log, events::EventType::Touch, syn.schema, cfg);
        ASSERT_TRUE(cds.ok()) << cds.status().message();
        std::vector<size_t> cols(cds.value()->numFeatures());
        for (size_t i = 0; i < cols.size(); ++i)
            cols[i] = i;
        ForestConfig fc;
        fc.num_trees = 6;
        RandomForest f(fc);
        f.train(*cds.value(), cols);
        SelectionResult sel =
            selectNecessaryInputs(*cds.value(), {});
        if (bi == 0) {
            want_fp = f.fingerprint();
            want_sel = sel;
        } else {
            EXPECT_EQ(f.fingerprint(), want_fp)
                << "block " << blocks[bi];
            expectSameSelection(sel, want_sel);
        }
    }
}

// Thread axis of the same contract, on one SHARED mmap-shaped view:
// 1 vs 8 threads must agree bitwise (and under TSan this doubles as
// the shared-residency-accounting race smoke).
TEST(ChunkedDatasetTest, ThreadInvarianceOnSharedView)
{
    Synthetic syn(400, 5);
    auto log = trainingLog(syn);
    ChunkedConfig cfg;
    cfg.residency_budget_bytes = 1 << 16;
    auto cds = ChunkedDataset::attach(log, events::EventType::Touch,
                                      syn.schema, cfg);
    ASSERT_TRUE(cds.ok()) << cds.status().message();
    const ChunkedDataset &ds = *cds.value();
    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;

    ForestConfig f1;
    f1.num_trees = 8;
    f1.threads = 1;
    ForestConfig f8 = f1;
    f8.threads = 8;
    RandomForest forest1(f1), forest8(f8);
    forest1.train(ds, cols);
    forest8.train(ds, cols);
    EXPECT_EQ(forest1.fingerprint(), forest8.fingerprint());

    PfiConfig p1;
    p1.threads = 1;
    PfiConfig p8 = p1;
    p8.threads = 8;
    PfiResult r1 = computePfi(forest1, ds, cols, p1);
    PfiResult r8 = computePfi(forest1, ds, cols, p8);
    EXPECT_EQ(r1.importance, r8.importance);
    EXPECT_EQ(r1.base_error, r8.base_error);
}

// A training section recorded against a different game must come
// back as an error Status, never a panic or out-of-bounds read.
TEST(ChunkedDatasetTest, RejectsForeignSchema)
{
    Synthetic syn(50);
    auto log = trainingLog(syn);
    events::FieldSchema tiny;
    tiny.addInput("only", events::InputCategory::Event, 2);
    auto cds = ChunkedDataset::attach(log, events::EventType::Touch,
                                      tiny);
    EXPECT_FALSE(cds.ok());
    // And a type with no section at all.
    auto none = ChunkedDataset::attach(log, events::EventType::Gps,
                                       syn.schema);
    EXPECT_FALSE(none.ok());
}

// ----------------------------------------------------------- PfiCache

// A cache hit must be byte-exact and observable: the second run
// re-scores nothing (shrink.pfi.cols_rescored unchanged) yet
// returns the identical result; changing the seed misses.
TEST(PfiTest, CacheServesExactHits)
{
    Synthetic syn(300);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;
    ForestConfig fc;
    fc.num_trees = 6;
    RandomForest forest(fc);
    forest.train(ds, cols);

    PfiCache cache;
    obs::Registry reg;
    PfiConfig pc;
    pc.cache = &cache;
    pc.obs = &reg;

    PfiResult a = computePfi(forest, ds, cols, pc);
    uint64_t rescored =
        reg.counter("shrink.pfi.cols_rescored").value();
    EXPECT_EQ(rescored, cols.size());
    EXPECT_EQ(reg.counter("shrink.pfi.cols_cached").value(), 0u);

    PfiResult b = computePfi(forest, ds, cols, pc);
    EXPECT_EQ(reg.counter("shrink.pfi.cols_rescored").value(),
              rescored);  // nothing re-scored
    EXPECT_EQ(reg.counter("shrink.pfi.cols_cached").value(),
              cols.size());
    EXPECT_EQ(a.importance, b.importance);
    EXPECT_EQ(a.base_error, b.base_error);

    // A different seed is a different key: must re-score.
    PfiConfig other = pc;
    other.seed = pc.seed + 1;
    (void)computePfi(forest, ds, cols, other);
    EXPECT_GT(reg.counter("shrink.pfi.cols_rescored").value(),
              rescored);
}

// The key must cover the dataset content: perturbing one value in a
// scored column forces a re-score.
TEST(PfiTest, CacheKeyTracksColumnContent)
{
    Synthetic syn(200);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;
    ForestConfig fc;
    fc.num_trees = 4;
    RandomForest forest(fc);
    forest.train(ds, cols);

    PfiConfig pc;
    uint64_t k1 = pfiCacheKey(forest, ds, cols, pc);
    ASSERT_NE(k1, 0u);
    EXPECT_EQ(pfiCacheKey(forest, ds, cols, pc), k1);

    syn.records[7].inputs[0].value ^= 1;
    Dataset ds2(syn.ptrs(), syn.schema);
    EXPECT_NE(pfiCacheKey(forest, ds2, cols, pc), k1);

    // Dropping a column from the scored set changes the key too.
    std::vector<size_t> fewer(cols.begin(), cols.end() - 1);
    EXPECT_NE(pfiCacheKey(forest, ds, fewer, pc), k1);
}

}  // namespace
}  // namespace ml
}  // namespace snip
