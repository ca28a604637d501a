/**
 * @file
 * Tests for the ML layer on synthetic data with known ground truth:
 * dataset construction, the table predictor's exact-match
 * semantics, PFI importance ranking, and the necessary-input
 * selector recovering planted necessary features.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "ml/chunked_dataset.h"
#include "ml/dataset.h"
#include "ml/feature_selection.h"
#include "ml/pfi.h"
#include "ml/table_predictor.h"
#include "obs/metrics.h"
#include "util/parallel.h"
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

/**
 * A copy of @p src with column @p col's values replaced by @p values
 * (one per row), sharing its labels and weights: an overridden or
 * permuted column as a view of its own. A model trained on @p src
 * keys its rows through keyOf(), the per-row path.
 */
class OverrideView : public DatasetView
{
  public:
    OverrideView(const DatasetView &src, size_t col,
                 const std::vector<uint64_t> &values)
    {
        for (size_t c = 0; c < src.numFeatures(); ++c) {
            const uint64_t *v =
                c == col ? values.data() : src.columnData(c);
            owned_.insert(owned_.end(), v, v + src.numRows());
            featureFields_.push_back(src.featureField(c));
        }
        values_ = owned_.data();
        labels_ = src.labelData();
        weights_ = src.weightData();
        schema_ = &src.schema();
        rows_ = src.numRows();
        totalWeight_ = src.totalWeight();
    }

  private:
    std::vector<uint64_t> owned_;
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

TEST(DatasetDeathTest, InputOutsideSchemaPanics)
{
    Synthetic syn(4);
    syn.records[2].inputs.push_back({syn.out + 7, 1});
    EXPECT_DEATH(Dataset(syn.ptrs(), syn.schema),
                 "outside the 5-field schema");
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
            uint64_t la = 0, lb = 0;
            ASSERT_EQ(derived.lookupLabel(ds, r, la),
                      fresh.lookupLabel(other, r, lb));
            EXPECT_EQ(la, lb);
        }
    }
}

// The stored-key delta path (permutedWrong: the stored key moved by
// one column's term difference per row) must score the weight that
// per-row recomputed keys mispredict on a copy of the view with that
// column replaced, for a selected and an unselected column, scored on
// the trained view and on another.
TEST(TablePredictorTest, OverrideKeyPathMatchesPerRowPredict)
{
    Synthetic syn(300);
    Dataset ds(syn.ptrs(), syn.schema);
    Dataset other(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fa),
                                ds.columnOf(syn.fb)};
    TablePredictor tp;
    tp.train(ds, cols);

    size_t n = ds.numRows();
    std::vector<uint64_t> plain(n);
    tp.predictRows(ds, 0, n, plain.data());
    for (size_t col : {ds.columnOf(syn.fa), ds.columnOf(syn.fn)}) {
        std::vector<uint64_t> shifted(n), delta(n);
        for (size_t r = 0; r < n; ++r) {
            shifted[r] = ds.value((r + 7) % n, col);
            delta[r] = TablePredictor::term(col, shifted[r]) -
                       TablePredictor::term(col, ds.value(r, col));
        }
        OverrideView view(ds, col, shifted);
        std::vector<uint64_t> pred(n);
        tp.predictRows(view, 0, n, pred.data());
        uint64_t wrong = 0;
        for (size_t r = 0; r < n; ++r) {
            EXPECT_EQ(pred[r], tp.predict(view, r));
            if (pred[r] != ds.label(r))
                wrong += ds.weight(r);
        }
        EXPECT_EQ(tp.permutedWrong(ds, col, delta.data()), wrong)
            << "col " << col;
        EXPECT_EQ(tp.permutedWrong(other, col, delta.data()), wrong)
            << "col " << col;
        if (col == ds.columnOf(syn.fn))
            EXPECT_EQ(pred, plain) << "unselected column";
        else
            EXPECT_NE(pred, plain) << "selected column";
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

// Equal-weight labels under one key, rows passed out of order: the
// majority is the smaller label, and the fallback follows the same
// rule.
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

    TablePredictor tp;
    tp.trainOnRows(ds, {0}, rows);
    EXPECT_EQ(tp.tableRows(), 1u);
    EXPECT_EQ(tp.predict(ds, 0), small);
    EXPECT_EQ(tp.predict(ds, 4), small);  // fallback label
}

// Training on no rows must not inherit the previous training's
// entries or fallback.
TEST(TablePredictorTest, EmptyTrainingResetsFallback)
{
    Synthetic syn(200);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {ds.columnOf(syn.fb)};
    TablePredictor tp;
    tp.train(ds, cols);
    ASSERT_NE(tp.predict(ds, 0), kNoLabel);

    tp.trainOnRows(ds, cols, {});
    EXPECT_EQ(tp.tableRows(), 0u);
    EXPECT_EQ(tp.predict(ds, 0), kNoLabel);
}

/**
 * Random table: @p ncols input columns of @p card values each,
 * labels drawn from @p nlabels output values, weights 1..3 (so
 * equal-weight ties are common).
 */
struct RandomTable {
    events::FieldSchema schema;
    std::vector<games::HandlerExecution> records;

    RandomTable(util::Rng &rng, size_t n, size_t ncols, uint64_t card,
                uint64_t nlabels)
    {
        std::vector<events::FieldId> in;
        for (size_t c = 0; c < ncols; ++c)
            in.push_back(schema.addInput("c" + std::to_string(c),
                                         events::InputCategory::Event,
                                         4));
        events::FieldId out =
            schema.addOutput("o", events::OutputCategory::History, 8);
        records.resize(n);
        for (auto &r : records) {
            r.type = events::EventType::Touch;
            for (events::FieldId fid : in)
                r.inputs.push_back({fid, rng.uniformInt(0, card - 1)});
            r.outputs = {{out, rng.uniformInt(0, nlabels - 1)}};
            r.cpu_instructions = rng.uniformInt(1, 3);
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

/** One table entry: key and majority label. */
struct RefEntry {
    uint64_t key, label;
};

/**
 * Brute-force tally with per-key std::maps: per key, the smallest
 * label of strictly the greatest weight; the fallback by the same
 * rule over all rows.
 */
struct RefTally {
    std::vector<RefEntry> entries;  // ascending key
    uint64_t fallback_label = kNoLabel;

    RefTally(const DatasetView &ds, const std::vector<size_t> &cols,
             const std::vector<size_t> &rows)
    {
        std::vector<uint64_t> keys = TablePredictor::rowKeys(ds, cols);
        std::map<uint64_t, std::map<uint64_t, uint64_t>> per_key;
        std::map<uint64_t, uint64_t> overall;
        for (size_t r : rows) {
            per_key[keys[r]][ds.label(r)] += ds.weight(r);
            overall[ds.label(r)] += ds.weight(r);
        }
        auto majority = [](const std::map<uint64_t, uint64_t> &labels) {
            uint64_t best = 0, label = kNoLabel;
            for (const auto &[l, w] : labels) {
                if (w > best) {
                    best = w;
                    label = l;
                }
            }
            return label;
        };
        for (const auto &[key, labels] : per_key)
            entries.push_back({key, majority(labels)});
        fallback_label = majority(overall);
    }

    const RefEntry *find(uint64_t key) const
    {
        for (const RefEntry &e : entries)
            if (e.key == key)
                return &e;
        return nullptr;
    }
};

/**
 * TablePredictor::fingerprint() recomputed from its definition: the
 * trained entries in ascending-key order, the fallback label, then
 * the inserted entries sorted by key.
 */
uint64_t
refFingerprint(const std::vector<size_t> &cols,
               const std::vector<RefEntry> &trained, uint64_t fb_label,
               std::vector<RefEntry> inserted)
{
    std::sort(inserted.begin(), inserted.end(),
              [](const RefEntry &a, const RefEntry &b) {
                  return a.key < b.key;
              });
    uint64_t h = util::mixCombine(0x7ab1ef9ULL, trained.size());
    for (size_t c : cols)
        h = util::mixCombine(h, c);
    auto mix = [&h](const RefEntry &e) {
        h = util::mixCombine(h, e.key);
        h = util::mixCombine(h, e.label);
    };
    for (const RefEntry &e : trained)
        mix(e);
    h = util::mixCombine(h, fb_label);
    for (const RefEntry &e : inserted)
        mix(e);
    return h ? h : 1;
}

// The bucketed tally must reproduce the brute-force per-key tally:
// entries, majority labels and the fallback. Rows are passed shuffled, and rows whose
// first column is 0 are left out so their keys hit the fallback.
TEST(TablePredictorTest, TallyMatchesBruteForceReference)
{
    util::Rng rng(2024);
    for (int trial = 0; trial < 60; ++trial) {
        size_t n = rng.uniformInt(1, 600);
        size_t ncols = rng.uniformInt(1, 3);
        uint64_t card = rng.uniformInt(1, 6);
        uint64_t nlabels = rng.uniformInt(1, 8);
        RandomTable tab(rng, n, ncols, card, nlabels);
        Dataset ds(tab.ptrs(), tab.schema);
        std::vector<size_t> cols(ds.numFeatures());
        for (size_t c = 0; c < cols.size(); ++c)
            cols[c] = c;
        std::vector<size_t> rows;
        for (size_t r = 0; r < n; ++r)
            if (card == 1 || ds.value(r, 0) != 0)
                rows.push_back(r);
        for (size_t i = rows.size(); i > 1; --i)
            std::swap(rows[i - 1], rows[rng.uniformInt(0, i - 1)]);

        TablePredictor tp;
        tp.trainOnRows(ds, cols, rows);
        RefTally ref(ds, cols, rows);
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " n " << n << " cols "
                     << ncols << " card " << card << " labels "
                     << nlabels);
        EXPECT_EQ(tp.tableRows(), ref.entries.size());
        EXPECT_EQ(tp.fingerprint(),
                  refFingerprint(cols, ref.entries, ref.fallback_label,
                                 {}));
        std::vector<uint64_t> keys = TablePredictor::rowKeys(ds, cols);
        for (size_t r = 0; r < n; ++r) {
            const RefEntry *e = ref.find(keys[r]);
            uint64_t label = 0;
            ASSERT_EQ(tp.lookupLabel(ds, r, label), e != nullptr) << r;
            EXPECT_EQ(tp.predict(ds, r),
                      e ? e->label : ref.fallback_label) << r;
        }
    }
}

// Inserts share the trained entries' index and grow it past load
// 0.5: earlier keys stay found, the first insert of a key wins,
// trained keys shadow inserts, and the fingerprint orders the
// inserted entries by key after the trained ones.
TEST(TablePredictorTest, InsertsPastHalfLoadKeepEveryKey)
{
    // Key k = row % 150 with a distinct label per row: rows 0..9 are
    // trained, rows 10..149 insert new keys (the 32-slot index of the
    // 10 trained keys rehashes several times), rows 150.. repeat keys.
    events::FieldSchema schema;
    events::FieldId fk =
        schema.addInput("k", events::InputCategory::Event, 4);
    events::FieldId fo =
        schema.addOutput("o", events::OutputCategory::History, 8);
    std::vector<games::HandlerExecution> recs(400);
    std::vector<const games::HandlerExecution *> ptrs;
    for (size_t i = 0; i < recs.size(); ++i) {
        recs[i].type = events::EventType::Touch;
        recs[i].inputs = {{fk, i % 150}};
        recs[i].outputs = {{fo, i}};
        recs[i].cpu_instructions = 100;
        ptrs.push_back(&recs[i]);
    }
    Dataset ds(ptrs, schema);
    std::vector<size_t> cols = {0};
    std::vector<size_t> train_rows;
    for (size_t r = 0; r < 10; ++r)
        train_rows.push_back(r);
    TablePredictor tp;
    tp.trainOnRows(ds, cols, train_rows);
    RefTally ref(ds, cols, train_rows);
    ASSERT_EQ(tp.tableRows(), 10u);

    for (size_t r = 10; r < ds.numRows(); ++r) {
        tp.insertRow(ds, r);
        for (size_t q = 0; q <= r; ++q) {
            uint64_t label = 0;
            ASSERT_TRUE(tp.lookupLabel(ds, q, label))
                << "after insert " << r << ", row " << q;
            ASSERT_EQ(label, ds.label(q % 150));
        }
    }
    EXPECT_EQ(tp.tableRows(), 150u);

    std::vector<uint64_t> keys = TablePredictor::rowKeys(ds, cols);
    std::vector<RefEntry> inserted;
    for (size_t r = 10; r < 150; ++r)
        inserted.push_back({keys[r], ds.label(r)});
    EXPECT_EQ(tp.fingerprint(),
              refFingerprint(cols, ref.entries, ref.fallback_label,
                             inserted));
}

// predictRows' trained-view loop (stored keys) and its keyOf loop for
// any other view must both match per-row predict(), with trained and
// inserted entries in the table.
TEST(TablePredictorTest, PredictRowsBothPathsMatchPredict)
{
    Synthetic syn(400, 5);
    Dataset ds(syn.ptrs(), syn.schema);
    Dataset twin(syn.ptrs(), syn.schema);
    ASSERT_NE(ds.id(), twin.id());
    std::vector<size_t> cols = {ds.columnOf(syn.fa), ds.columnOf(syn.fn)};
    std::vector<size_t> train_rows;
    for (size_t r = 0; r < 120; ++r)
        train_rows.push_back(r);
    TablePredictor tp;
    tp.trainOnRows(ds, cols, train_rows);
    for (size_t r = 120; r < 400; r += 3)
        tp.insertRow(ds, r);

    size_t n = ds.numRows();
    for (const DatasetView *view : {static_cast<DatasetView *>(&ds),
                                    static_cast<DatasetView *>(&twin)}) {
        std::vector<uint64_t> out(n), window(37);
        tp.predictRows(*view, 0, n, out.data());
        tp.predictRows(*view, 200, 237, window.data());
        for (size_t r = 0; r < n; ++r)
            ASSERT_EQ(out[r], tp.predict(*view, r))
                << "view " << view->id() << " row " << r;
        for (size_t r = 200; r < 237; ++r)
            EXPECT_EQ(window[r - 200], out[r]);
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
    obs::Registry reg;
    PfiConfig cfg;
    cfg.seed = 99;
    cfg.obs = &reg;
    PfiResult a = computePfi(tp, ds, cols, cfg);
    // One task per (feature, repeat): what loopbench's ml.pfi_tasks
    // reads.
    const uint64_t tasks = cols.size() * kPfiRepeats;
    EXPECT_EQ(reg.counterValue("shrink.pfi.tasks"), tasks);
    PfiResult b = computePfi(tp, ds, cols, cfg);
    EXPECT_EQ(reg.counterValue("shrink.pfi.tasks"), 2 * tasks);
    EXPECT_EQ(a.importance, b.importance);
}

TEST(PfiTest, DeterministicAcrossThreadCounts)
{
    Synthetic syn(400);
    Dataset ds(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1, 2, 3};
    TablePredictor tp;
    tp.train(ds, cols);

    PfiConfig c1;
    c1.seed = 42;
    c1.threads = 1;
    PfiConfig c8 = c1;
    c8.threads = 8;
    PfiResult a = computePfi(tp, ds, cols, c1);
    PfiResult b = computePfi(tp, ds, cols, c8);
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

/**
 * Reference PFI, the semantics the key-delta path must reproduce
 * bitwise: a Fisher-Yates row permutation drawn from
 * (seed, col, rep), the permuted column gathered into a copy of the
 * view and predicted there row by row, errors averaged per column in
 * repeat order.
 */
PfiResult
referencePfi(const TablePredictor &p, const DatasetView &ds,
             const std::vector<size_t> &cols, const PfiConfig &cfg)
{
    PfiResult res;
    res.base_error = weightedErrorRate(p, ds);
    size_t n = ds.numRows();
    std::vector<uint64_t> permuted(n), pred(n);
    for (size_t col : cols) {
        double err_sum = 0.0;
        for (size_t rep = 0; rep < kPfiRepeats; ++rep) {
            util::Rng rng(
                util::mixCombine(cfg.seed, util::mixCombine(col, rep)));
            std::vector<size_t> perm = rng.permutation(n);
            for (size_t r = 0; r < n; ++r)
                permuted[r] = ds.value(perm[r], col);
            p.predictRows(OverrideView(ds, col, permuted), 0, n,
                          pred.data());
            uint64_t wrong = 0;
            for (size_t r = 0; r < n; ++r)
                if (pred[r] != ds.label(r))
                    wrong += ds.weight(r);
            err_sum += static_cast<double>(wrong) /
                       static_cast<double>(ds.totalWeight());
        }
        double imp = err_sum / static_cast<double>(kPfiRepeats) -
                     res.base_error;
        res.importance.push_back(imp > 0.0 ? imp : 0.0);
    }
    return res;
}

/**
 * Synthetic world widened for the PFI reference checks: row weights
 * vary, the noise column is absent from a fifth of the rows, and two
 * more columns (one near-constant, one copy of `a`) join the key.
 */
Synthetic
widePfiWorld(size_t n, uint64_t seed)
{
    Synthetic syn(n, seed);
    events::FieldId fc = syn.schema.addInput(
        "c", events::InputCategory::Event, 1);
    events::FieldId fd = syn.schema.addInput(
        "d", events::InputCategory::History, 2);
    util::Rng rng(seed + 1);
    for (auto &r : syn.records) {
        uint64_t a = r.inputs[0].value;
        r.cpu_instructions = 1 + rng.uniformInt(0, 5000);
        if (rng.uniformInt(0, 4) == 0)
            r.inputs.erase(r.inputs.begin() + 2);  // noise absent
        r.inputs.push_back({fc, rng.uniformInt(0, 9) == 0 ? 1u : 0u});
        r.inputs.push_back({fd, a});
    }
    return syn;
}

/** Train on the first 70% of rows, then insert the rest (holdout). */
void
trainLikeSelection(TablePredictor &tp, const Dataset &ds,
                   const std::vector<size_t> &cols)
{
    std::vector<size_t> train_rows;
    size_t train_n = ds.numRows() * 7 / 10;
    for (size_t r = 0; r < train_n; ++r)
        train_rows.push_back(r);
    tp.trainOnRows(ds, cols, train_rows);
    for (size_t r = train_n; r < ds.numRows(); ++r)
        tp.insertRow(ds, r);
}

void
expectSamePfi(const PfiResult &got, const PfiResult &want)
{
    EXPECT_EQ(got.base_error, want.base_error);
    EXPECT_EQ(got.importance, want.importance);  // bitwise
}

/**
 * The key-delta PFI equals the reference bitwise: at 1 and 4
 * threads, on column subsets, with a permuted column outside the
 * model's key (importance 0), and on a model holding inserted rows.
 */
TEST(PfiTest, KeyedPfiMatchesReference)
{
    Synthetic syn = widePfiWorld(700, 21);
    Dataset ds(syn.ptrs(), syn.schema);
    ASSERT_EQ(ds.numFeatures(), 6u);
    std::vector<size_t> all = {0, 1, 2, 3, 4, 5};
    std::vector<std::vector<size_t>> model_cols = {
        all, {0, 1, 2, 4, 5}, {0, 1}, {2}};
    std::vector<std::vector<size_t>> subsets = {
        all, {1, 3}, {5, 0}, {2}};
    for (const auto &mc : model_cols) {
        TablePredictor tp;
        trainLikeSelection(tp, ds, mc);
        for (const auto &cols : subsets) {
            PfiConfig cfg;
            cfg.seed = 0x51ce;
            PfiResult want = referencePfi(tp, ds, cols, cfg);
            for (unsigned threads : {1u, 4u}) {
                cfg.threads = threads;
                SCOPED_TRACE(::testing::Message()
                             << "model " << mc.size() << " cols, subset "
                             << cols.size() << ", threads " << threads);
                expectSamePfi(computePfi(tp, ds, cols, cfg), want);
            }
        }
        // A view the model did not train on recomputes each key.
        Dataset twin(syn.ptrs(), syn.schema);
        PfiConfig cfg;
        expectSamePfi(computePfi(tp, twin, all, cfg),
                      referencePfi(tp, twin, all, cfg));
    }
}

/**
 * Two refreshes of one selection through one PfiStore: the second
 * reads the deltas the first stored, for a retrained model without
 * the dropped column, and both equal the reference bitwise. The
 * store holds at most the view's value store, and the same bytes at
 * 1 and 4 threads.
 */
TEST(PfiTest, StoreReuseAcrossRefreshesMatchesReference)
{
    Synthetic syn = widePfiWorld(500, 8);
    Dataset ds(syn.ptrs(), syn.schema);
    const size_t bound = ds.numRows() * ds.numFeatures() * 8;
    std::vector<size_t> first = {0, 1, 2, 3, 4, 5};
    std::vector<size_t> second = {0, 2, 3, 4, 5};  // 1 dropped
    size_t held[2] = {0, 0};
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads);
        obs::Registry reg;
        PfiConfig cfg;
        cfg.seed = 0xbeef;
        cfg.threads = threads;
        cfg.obs = &reg;
        PfiStore store(ds, cfg);

        TablePredictor tp;
        trainLikeSelection(tp, ds, first);
        expectSamePfi(computePfi(tp, ds, first, cfg, &store),
                      referencePfi(tp, ds, first, cfg));
        EXPECT_EQ(reg.counterValue("shrink.pfi.reused"), 0u);
        // 12 (column, repeat) slots, room for half of them.
        EXPECT_EQ(store.bytes(), bound);
        held[threads == 1 ? 0 : 1] = store.bytes();

        store.release(1);
        EXPECT_LT(store.bytes(), bound);
        trainLikeSelection(tp, ds, second);
        expectSamePfi(computePfi(tp, ds, second, cfg, &store),
                      referencePfi(tp, ds, second, cfg));
        EXPECT_GT(reg.counterValue("shrink.pfi.reused"), 0u);
        EXPECT_LE(store.bytes(), bound);
        EXPECT_EQ(reg.counterValue("shrink.pfi.tasks"),
                  (first.size() + second.size()) * 2);

        // A third pass reads every slot the second one filled.
        uint64_t before = reg.counterValue("shrink.pfi.reused");
        expectSamePfi(computePfi(tp, ds, second, cfg, &store),
                      referencePfi(tp, ds, second, cfg));
        EXPECT_EQ(reg.counterValue("shrink.pfi.reused") - before,
                  store.bytes() / (ds.numRows() * 8));

        // The released column's deltas are gone: scoring it again
        // rebuilds them.
        before = reg.counterValue("shrink.pfi.reused");
        expectSamePfi(computePfi(tp, ds, {1}, cfg, &store),
                      referencePfi(tp, ds, {1}, cfg));
        EXPECT_EQ(reg.counterValue("shrink.pfi.reused"), before);
    }
    EXPECT_EQ(held[0], held[1]);
}

TEST(PfiDeathTest, StoreBoundToAnotherViewOrConfigPanics)
{
    Synthetic syn(200, 4);
    Dataset ds(syn.ptrs(), syn.schema);
    Dataset other(syn.ptrs(), syn.schema);
    std::vector<size_t> cols = {0, 1};
    TablePredictor tp;
    tp.train(ds, cols);
    PfiConfig cfg;
    PfiStore store(other, cfg);
    EXPECT_DEATH(computePfi(tp, ds, cols, cfg, &store),
                 "store bound to another view");
    PfiStore mine(ds, cfg);
    PfiConfig reseeded = cfg;
    reseeded.seed += 1;
    EXPECT_DEATH(computePfi(tp, ds, cols, reseeded, &mine),
                 "store bound to another view");
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
    chartTail(ds, r);
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
    chartTail(ds, r, cfg);
    // The charted tail must record at least one step whose error
    // exceeds the budget (the Fig. 9 ramp).
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

/** Synthetic records encoded as an SNCT training file. */
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

/** Selection over @p ds with its Fig. 9 tail charted. */
SelectionResult
chartedSelection(const DatasetView &ds, const SelectionConfig &cfg = {})
{
    SelectionResult r = selectNecessaryInputs(ds, cfg);
    chartTail(ds, r, cfg);
    return r;
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
    TablePredictor tm, tch;
    tm.train(mem, cols);
    tch.train(ch, cols);
    EXPECT_EQ(tm.fingerprint(), tch.fingerprint());

    SelectionConfig sc;
    expectSameSelection(chartedSelection(mem, sc),
                        chartedSelection(ch, sc));
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
// ({1, 64, 4096, all-rows}) must produce bitwise-identical tables,
// importances and selections — noteStreamed cadence only drops
// clean pages, never changes bytes.
TEST(ChunkedDatasetTest, BlockSizeInvarianceFuzz)
{
    Synthetic syn(500, 9);
    auto log = trainingLog(syn);
    std::vector<size_t> blocks = {1, 64, 4096, syn.records.size()};

    uint64_t want_fp = 0;
    PfiResult want_pfi;
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
        TablePredictor tp;
        tp.train(*cds.value(), cols);
        PfiResult pfi = computePfi(tp, *cds.value(), cols);
        SelectionResult sel = chartedSelection(*cds.value());
        if (bi == 0) {
            want_fp = tp.fingerprint();
            want_pfi = pfi;
            want_sel = sel;
        } else {
            EXPECT_EQ(tp.fingerprint(), want_fp)
                << "block " << blocks[bi];
            EXPECT_EQ(pfi.importance, want_pfi.importance)
                << "block " << blocks[bi];
            expectSameSelection(sel, want_sel);
        }
    }
}

// Thread axis of the same contract, on one SHARED mmap-shaped view:
// 1 vs 8 threads must agree bitwise (and under TSan this doubles as
// the shared-residency-accounting race smoke: concurrent row-key
// sweeps all charge the one view's streamed-volume counter).
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

    std::vector<uint64_t> want = TablePredictor::rowKeys(ds, cols);
    std::vector<std::vector<uint64_t>> keys(8);
    util::parallelFor(keys.size(), [&](size_t i) {
        keys[i] = TablePredictor::rowKeys(ds, cols);
    }, 8);
    for (size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(keys[i], want) << "sweep " << i;

    TablePredictor tp;
    tp.train(ds, cols);
    PfiConfig p1;
    p1.threads = 1;
    PfiConfig p8 = p1;
    p8.threads = 8;
    PfiResult r1 = computePfi(tp, ds, cols, p1);
    PfiResult r8 = computePfi(tp, ds, cols, p8);
    EXPECT_EQ(r1.importance, r8.importance);
    EXPECT_EQ(r1.base_error, r8.base_error);
}

// An out-of-core view keeps no PFI deltas (its heap stays within the
// chunked design), and scoring through its store changes nothing.
TEST(ChunkedDatasetTest, PfiStoreKeepsNothingOutOfCore)
{
    Synthetic syn(300, 6);
    auto log = trainingLog(syn);
    ChunkedConfig cfg;
    cfg.block_rows = 64;
    auto cds = ChunkedDataset::attach(log, events::EventType::Touch,
                                      syn.schema, cfg);
    ASSERT_TRUE(cds.ok()) << cds.status().message();
    const ChunkedDataset &ds = *cds.value();
    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;
    TablePredictor tp;
    tp.train(ds, cols);
    PfiConfig pc;
    PfiStore store(ds, pc);
    PfiResult a = computePfi(tp, ds, cols, pc, &store);
    PfiResult b = computePfi(tp, ds, cols, pc, &store);
    EXPECT_EQ(store.bytes(), 0u);
    expectSamePfi(a, referencePfi(tp, ds, cols, pc));
    expectSamePfi(b, a);
}

/**
 * Resident bytes of this process's mappings of @p path, summed from
 * /proc/self/smaps; -1 when nothing maps it. A mapping's header line
 * ("lo-hi perms offset dev inode path") has a space before its first
 * colon; its attribute lines ("Rss:  12 kB") do not.
 */
long long
mappingRss(const std::string &path)
{
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    bool ours = false;
    long long rss = -1;
    while (std::getline(smaps, line)) {
        if (line.find(' ') < line.find(':')) {
            ours = line.size() >= path.size() &&
                   line.compare(line.size() - path.size(), path.size(),
                                path) == 0;
            continue;
        }
        long long kb = 0;
        if (ours && std::sscanf(line.c_str(), "Rss: %lld kB", &kb) == 1)
            rss = std::max(rss, 0LL) + kb * 1024;
    }
    return rss;
}

// noteStreamed is what bounds an out-of-core consumer's page
// footprint: sweeping every column of a 16 MB mapped section in
// streamBlockRows() blocks under a 1 MB budget must keep the
// mapping's resident set within budget + one block + one page.
TEST(ChunkedDatasetTest, ResidencyStaysWithinBudget)
{
    constexpr size_t kFeat = 8;
    constexpr uint64_t kRows = uint64_t{1} << 18;  // 2 MB per column
    events::FieldSchema schema;
    std::vector<uint32_t> fids;
    for (size_t f = 0; f < kFeat; ++f)
        fids.push_back(schema.addInput("f" + std::to_string(f),
                                       events::InputCategory::Event, 8));
    std::vector<uint32_t> oids = {
        schema.addOutput("o", events::OutputCategory::History, 8)};

    std::string path = ::testing::TempDir() + "snip_residency.snct";
    {
        trace::TrainingWriter w;
        util::Status st = w.create(path, "synthetic",
                                   events::EventType::Touch, fids, oids,
                                   kRows);
        std::vector<uint64_t> feat(kFeat);
        for (uint64_t r = 0; st.ok() && r < kRows; ++r) {
            for (size_t f = 0; f < kFeat; ++f)
                feat[f] = util::mixCombine(r, f) & 0xff;
            st = w.addRow(feat.data(), feat[0], 1, &feat[1]);
        }
        if (st.ok())
            st = w.finish();
        ASSERT_TRUE(st.ok()) << st.message();
    }
    {
        auto log = trace::ColumnarLog::open(path);
        ASSERT_TRUE(log.ok()) << log.status().message();
        ASSERT_TRUE(log.value()->mmapBacked());
        ChunkedConfig cfg;
        cfg.residency_budget_bytes = size_t{1} << 20;
        auto cds = ChunkedDataset::attach(
            log.value(), events::EventType::Touch, schema, cfg);
        ASSERT_TRUE(cds.ok()) << cds.status().message();
        const ChunkedDataset &ds = *cds.value();
        size_t blk = ds.streamBlockRows();
        long long bound = static_cast<long long>(
            cfg.residency_budget_bytes + blk * sizeof(uint64_t) +
            static_cast<size_t>(sysconf(_SC_PAGESIZE)));

        long long peak = -1;
        uint64_t sum = 0;
        for (size_t c = 0; c < ds.numFeatures(); ++c) {
            const uint64_t *col = ds.columnData(c);
            for (size_t base = 0; base < ds.numRows(); base += blk) {
                size_t end = std::min(ds.numRows(), base + blk);
                for (size_t r = base; r < end; ++r)
                    sum += col[r];
                peak = std::max(peak, mappingRss(path));
                ds.noteStreamed((end - base) * sizeof(uint64_t));
            }
        }
        EXPECT_GT(sum, 0u);
        ASSERT_GE(peak, 0) << "no mapping of " << path << " in smaps";
        EXPECT_LE(peak, bound) << "swept " << kFeat * kRows * 8
                               << " bytes";
    }
    std::remove(path.c_str());
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

}  // namespace
}  // namespace ml
}  // namespace snip
