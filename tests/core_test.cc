/**
 * @file
 * Tests for the core SNIP layer: output diffing, the deployed memo
 * table, the naive / In.Event table analyses, the pipeline facade,
 * scheme decision policies, the session runner, and the continuous
 * learner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <unordered_map>

#include "core/continuous_learning.h"
#include "core/frozen_table.h"
#include "core/lookup_table.h"
#include "core/memo_table.h"
#include "core/model_codec.h"
#include "core/output_diff.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "ml/dataset.h"
#include "obs/metrics.h"
#include "trace/columnar_log.h"
#include "trace/recorder.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace core {
namespace {

// --------------------------------------------------------- OutputDiff

class OutputDiffTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        t_ = schema_.addOutput("t", events::OutputCategory::Temp, 16);
        h_ = schema_.addOutput("h", events::OutputCategory::History, 4);
        x_ = schema_.addOutput("x", events::OutputCategory::Extern,
                               256);
    }

    events::FieldSchema schema_;
    events::FieldId t_, h_, x_;
};

TEST_F(OutputDiffTest, IdenticalIsClean)
{
    std::vector<events::FieldValue> a = {{t_, 1}, {h_, 2}};
    OutputDiff d = diffOutputs(a, a, schema_);
    EXPECT_FALSE(d.anyWrong());
    EXPECT_EQ(d.fields_total, 2u);
}

TEST_F(OutputDiffTest, TempOnlyDamage)
{
    std::vector<events::FieldValue> applied = {{t_, 1}, {h_, 2}};
    std::vector<events::FieldValue> truth = {{t_, 9}, {h_, 2}};
    OutputDiff d = diffOutputs(applied, truth, schema_);
    EXPECT_TRUE(d.anyWrong());
    EXPECT_TRUE(d.tempOnly());
    EXPECT_EQ(d.wrong_temp, 1u);
    EXPECT_EQ(d.wrong_history, 0u);
}

TEST_F(OutputDiffTest, HistoryDamageNotTempOnly)
{
    std::vector<events::FieldValue> applied = {{h_, 1}};
    std::vector<events::FieldValue> truth = {{h_, 2}};
    OutputDiff d = diffOutputs(applied, truth, schema_);
    EXPECT_FALSE(d.tempOnly());
    EXPECT_EQ(d.wrong_history, 1u);
}

TEST_F(OutputDiffTest, MissingAndSpuriousCountWrong)
{
    std::vector<events::FieldValue> applied = {{t_, 1}};
    std::vector<events::FieldValue> truth = {{h_, 2}};
    OutputDiff d = diffOutputs(applied, truth, schema_);
    EXPECT_EQ(d.fields_total, 2u);
    EXPECT_EQ(d.fields_wrong, 2u);
    EXPECT_EQ(d.wrong_temp, 1u);   // spurious temp write
    EXPECT_EQ(d.wrong_history, 1u);  // missing history write
}

TEST_F(OutputDiffTest, ExternDamage)
{
    std::vector<events::FieldValue> applied = {};
    std::vector<events::FieldValue> truth = {{x_, 7}};
    OutputDiff d = diffOutputs(applied, truth, schema_);
    EXPECT_EQ(d.wrong_extern, 1u);
    EXPECT_FALSE(d.tempOnly());
}

// ---------------------------------------------------------- MemoTable

class MemoTableTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        game_ = games::makeGame("colorphun");
        // Deploy the ground-truth necessary set.
        selected_ =
            game_->necessaryInputIds(events::EventType::Touch);
        table_ = std::make_unique<MemoTable>(game_->schema());
        table_->setSelected(events::EventType::Touch, selected_);
    }

    games::HandlerExecution
    nextExecution(util::Rng &rng)
    {
        events::EventObject ev =
            game_->makeEvent(events::EventType::Touch, 0.0, rng);
        last_event_ = ev;
        return game_->process(ev);
    }

    /**
     * Freeze @p table and look @p ev up against the live game; the
     * outputs are copied out before the arena goes away.
     */
    struct Probe {
        bool hit = false;
        uint32_t candidates = 0;
        uint64_t bytes = 0;
        std::vector<events::FieldValue> outputs;
    };
    Probe
    probe(const MemoTable &table, const events::EventObject &ev,
          LookupScratch &scratch)
    {
        auto frozen = table.freeze();
        FrozenLookup r = frozen->lookup(ev, *game_, scratch);
        Probe p{r.hit, r.candidates, r.bytes_scanned, {}};
        for (uint32_t o = 0; o < r.nout; ++o)
            p.outputs.push_back({r.out_ids[o], r.out_values[o]});
        return p;
    }
    Probe
    probe(const MemoTable &table, const events::EventObject &ev)
    {
        LookupScratch scratch;
        return probe(table, ev, scratch);
    }

    std::unique_ptr<games::Game> game_;
    std::vector<events::FieldId> selected_;
    std::unique_ptr<MemoTable> table_;
    events::EventObject last_event_;
};

TEST_F(MemoTableTest, MissOnEmptyTable)
{
    util::Rng rng(1);
    nextExecution(rng);
    Probe res = probe(*table_, last_event_);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.candidates, 0u);
    // Gathering the necessary inputs still costs their bytes.
    EXPECT_EQ(res.bytes,
              table_->selectedBytes(events::EventType::Touch));
}

TEST_F(MemoTableTest, HitAfterInsertWithUnchangedState)
{
    util::Rng rng(2);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    EXPECT_EQ(table_->entryCount(), 1u);
    Probe res = probe(*table_, last_event_);
    ASSERT_TRUE(res.hit);
    EXPECT_EQ(res.outputs, ex.outputs);
    EXPECT_GE(res.candidates, 1u);
}

TEST_F(MemoTableTest, StateChangeInvalidatesMatch)
{
    util::Rng rng(3);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    // Perturb a necessary history field the entry stored.
    events::FieldId mode_out = game_->schema().find("o.mode");
    ASSERT_NE(mode_out, events::kInvalidField);
    uint64_t cur = game_->state().get(game_->schema().find("h.mode"));
    game_->state().apply(mode_out, cur + 1);
    Probe res = probe(*table_, last_event_);
    EXPECT_FALSE(res.hit);
}

TEST_F(MemoTableTest, DuplicateInsertIgnored)
{
    util::Rng rng(4);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    table_->insert(ex);
    EXPECT_EQ(table_->entryCount(), 1u);
}

TEST_F(MemoTableTest, BytesAccounting)
{
    util::Rng rng(5);
    table_->insert(nextExecution(rng));
    EXPECT_GT(table_->totalBytes(), MemoTable::kEntryHeaderBytes);
    uint64_t one = table_->totalBytes();
    // Different state -> different key -> new entry.
    events::FieldId streak_out = game_->schema().find("o.streak");
    uint64_t cur =
        game_->state().get(game_->schema().find("h.streak"));
    game_->state().apply(streak_out, cur + 1);
    table_->insert(nextExecution(rng));
    EXPECT_GE(table_->totalBytes(), one);
}

TEST_F(MemoTableTest, ClearEmptiesTable)
{
    util::Rng rng(6);
    table_->insert(nextExecution(rng));
    table_->clear();
    EXPECT_EQ(table_->entryCount(), 0u);
    EXPECT_EQ(table_->totalBytes(), 0u);
}

TEST_F(MemoTableTest, UndeployedTypeMisses)
{
    // colorphun has no Gyro handler deployed in this table.
    events::EventObject ev;
    ev.type = events::EventType::Gyro;
    Probe res = probe(*table_, ev);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.bytes, 0u);
}

TEST_F(MemoTableTest, SetSelectedAfterInsertFatal)
{
    bool prev = util::setThrowOnError(true);
    util::Rng rng(7);
    table_->insert(nextExecution(rng));
    EXPECT_THROW(
        table_->setSelected(events::EventType::Touch, selected_),
        std::runtime_error);
    util::setThrowOnError(prev);
}

// Regression: lookups run through a const table (the shape
// concurrent readers use) and carry no mutable hit state at all; hit
// accounting lives in the caller's dense counter array indexed by
// the FrozenTable entry ordinal.
TEST_F(MemoTableTest, ConstLookupHitsFlowViaCallerOwnedOrdinals)
{
    util::Rng rng(8);
    table_->insert(nextExecution(rng));

    const MemoTable &ct = *table_;
    LookupScratch scratch;
    std::shared_ptr<const FrozenTable> frozen = ct.freeze();
    std::vector<uint64_t> hit_counts(frozen->entryCount(), 0);
    FrozenLookup fres = frozen->lookup(last_event_, *game_, scratch);
    ASSERT_TRUE(fres.hit);
    ASSERT_LT(fres.entry_ordinal, hit_counts.size());
    EXPECT_EQ(hit_counts[fres.entry_ordinal], 0u);
    ++hit_counts[fres.entry_ordinal];

    FrozenLookup again = frozen->lookup(last_event_, *game_, scratch);
    ASSERT_TRUE(again.hit);
    EXPECT_EQ(again.entry_ordinal, fres.entry_ordinal);
    EXPECT_EQ(hit_counts[again.entry_ordinal], 1u);
}

// Regression: an insert whose inputs are not sorted by FieldId must
// project the same key as the canonical record (the two-pointer
// projection used to silently drop every field after the first
// out-of-order one).
TEST_F(MemoTableTest, UnsortedInsertKeepsAllKeyFields)
{
    util::Rng rng(9);
    games::HandlerExecution ex = nextExecution(rng);
    ASSERT_GT(ex.inputs.size(), 1u);

    games::HandlerExecution reversed = ex;
    std::reverse(reversed.inputs.begin(), reversed.inputs.end());

    MemoTable other(game_->schema());
    other.setSelected(events::EventType::Touch, selected_);
    other.insert(reversed);
    table_->insert(ex);

    EXPECT_EQ(other.entryCount(), table_->entryCount());
    EXPECT_EQ(other.totalBytes(), table_->totalBytes());
    EXPECT_TRUE(probe(other, last_event_).hit);
}

// Regression: a missing In.Event field must not hash (and therefore
// match) like a present field whose value is UINT64_MAX — the old
// code used ~0ULL as the absence sentinel.
TEST_F(MemoTableTest, MissingFieldDoesNotCollideWithMaxValue)
{
    // Deploy a single In.Event key field.
    events::FieldId key_fid = events::kInvalidField;
    for (events::FieldId fid : selected_) {
        const auto &d = game_->schema().def(fid);
        if (d.side == events::FieldSide::Input &&
            d.in_cat == events::InputCategory::Event) {
            key_fid = fid;
            break;
        }
    }
    ASSERT_NE(key_fid, events::kInvalidField);
    MemoTable table(game_->schema());
    table.setSelected(events::EventType::Touch, {key_fid});

    // Entry recorded from an execution that never read the field.
    games::HandlerExecution rec;
    rec.type = events::EventType::Touch;
    rec.outputs = {{game_->schema().find("o.mode"), 1}};
    table.insert(rec);
    ASSERT_EQ(table.entryCount(), 1u);

    // An event carrying the legitimate value UINT64_MAX must not
    // land in the missing-field bucket (a false short-circuit).
    events::EventObject ev;
    ev.type = events::EventType::Touch;
    ev.fields = {{key_fid, ~0ULL}};
    Probe res = probe(table, ev);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.candidates, 0u);

    // And the converse: an event missing the field must not match
    // an entry keyed on value UINT64_MAX.
    games::HandlerExecution rec_max;
    rec_max.type = events::EventType::Touch;
    rec_max.inputs = {{key_fid, ~0ULL}};
    rec_max.outputs = {{game_->schema().find("o.mode"), 2}};
    MemoTable table2(game_->schema());
    table2.setSelected(events::EventType::Touch, {key_fid});
    table2.insert(rec_max);
    events::EventObject missing;
    missing.type = events::EventType::Touch;
    Probe res2 = probe(table2, missing);
    EXPECT_FALSE(res2.hit);
    EXPECT_EQ(res2.candidates, 0u);
}

// Duplicate inserts must leave both entryCount() and totalBytes()
// untouched (append-only semantics keep the first outputs).
TEST_F(MemoTableTest, DuplicateInsertAccountingUnchanged)
{
    util::Rng rng(10);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    size_t count = table_->entryCount();
    uint64_t bytes = table_->totalBytes();
    table_->insert(ex);
    table_->insert(ex);
    EXPECT_EQ(table_->entryCount(), count);
    EXPECT_EQ(table_->totalBytes(), bytes);
}

// clear() then re-inserting the same records must reproduce the
// exact accounting and hit behaviour of the first fill.
TEST_F(MemoTableTest, ClearThenReinsertRoundTrip)
{
    util::Rng rng(11);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    size_t count = table_->entryCount();
    uint64_t bytes = table_->totalBytes();

    table_->clear();
    EXPECT_EQ(table_->entryCount(), 0u);
    EXPECT_EQ(table_->totalBytes(), 0u);

    table_->insert(ex);
    EXPECT_EQ(table_->entryCount(), count);
    EXPECT_EQ(table_->totalBytes(), bytes);
    Probe res = probe(*table_, last_event_);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.outputs, ex.outputs);
}

// A scratch reused across lookups must produce results identical to
// a fresh one, whatever was looked up before.
TEST_F(MemoTableTest, ScratchReuseAcrossLookupsIsEquivalent)
{
    util::Rng rng(12);
    LookupScratch scratch;
    for (int i = 0; i < 20; ++i) {
        games::HandlerExecution ex = nextExecution(rng);
        table_->insert(ex);
        Probe a = probe(*table_, last_event_, scratch);
        Probe b = probe(*table_, last_event_);
        EXPECT_EQ(a.hit, b.hit);
        EXPECT_EQ(a.candidates, b.candidates);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.outputs, b.outputs);
    }
}

// A second table over the same schema whose entries are unioned in
// must behave like inserting the underlying records directly, with
// first-wins dedup preserved.
TEST_F(MemoTableTest, MergeFromUnionsEntries)
{
    util::Rng rng(13);
    games::HandlerExecution shared = nextExecution(rng);
    events::EventObject shared_event = last_event_;
    table_->insert(shared);
    size_t before = table_->entryCount();

    MemoTable other(game_->schema());
    other.setSelected(events::EventType::Touch, selected_);
    other.insert(shared);  // duplicate key: must not grow the union
    games::HandlerExecution fresh{};
    size_t other_only = 0;
    for (int i = 0; i < 50 && other_only == 0; ++i) {
        fresh = nextExecution(rng);
        other.insert(fresh);
        other_only = other.entryCount() - 1;
    }
    ASSERT_EQ(other_only, 1u);

    table_->mergeFrom(*other.freeze());
    EXPECT_EQ(table_->entryCount(), before + 1);
    Probe hit = probe(*table_, last_event_);
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(hit.outputs, fresh.outputs);
    // Merging again is idempotent, and the shared entry kept the
    // first-inserted outputs.
    table_->mergeFrom(*other.freeze());
    EXPECT_EQ(table_->entryCount(), before + 1);
    Probe dup = probe(*table_, shared_event);
    ASSERT_TRUE(dup.hit);
    EXPECT_EQ(dup.outputs, shared.outputs);
}

// -------------------------------------------------------- FrozenTable

// attach() over a copy of the arena bytes must reproduce the
// freeze()-built view exactly — this is the wire round trip the v2
// package performs — and the copy is a zero-copy view over the
// caller's buffer.
TEST_F(MemoTableTest, FrozenArenaAttachRoundTrip)
{
    util::Rng rng(0xa77ac4);
    std::vector<events::EventObject> seen;
    for (int i = 0; i < 64; ++i) {
        table_->insert(nextExecution(rng));
        seen.push_back(last_event_);
    }
    auto frozen = table_->freeze();
    EXPECT_FALSE(frozen->zeroCopy());  // freeze() owns its arena

    auto bytes = std::make_shared<std::vector<uint64_t>>(
        (frozen->arenaSize() + 7) / 8);
    std::memcpy(bytes->data(), frozen->arenaData(),
                frozen->arenaSize());
    auto attached = FrozenTable::attach(
        reinterpret_cast<const uint8_t *>(bytes->data()),
        frozen->arenaSize(), bytes, game_->schema());
    ASSERT_TRUE(attached.ok()) << attached.status().message();
    const FrozenTable &view = *attached.value();
    EXPECT_TRUE(view.zeroCopy());
    EXPECT_EQ(view.entryCount(), frozen->entryCount());
    EXPECT_EQ(view.totalBytes(), frozen->totalBytes());

    LookupScratch a, b;
    for (const auto &ev : seen) {
        FrozenLookup x = frozen->lookup(ev, *game_, a);
        FrozenLookup y = view.lookup(ev, *game_, b);
        ASSERT_EQ(x.hit, y.hit);
        ASSERT_EQ(x.candidates, y.candidates);
        ASSERT_EQ(x.bytes_scanned, y.bytes_scanned);
        if (x.hit) {
            ASSERT_EQ(x.entry_ordinal, y.entry_ordinal);
            ASSERT_EQ(x.nout, y.nout);
            for (uint32_t o = 0; o < x.nout; ++o)
                ASSERT_EQ(x.out_values[o], y.out_values[o]);
        }
    }
}

/**
 * The device lookup as it ran before the full-key index: gather the
 * selected inputs, hash the event-side ones into a subkey, then walk
 * that bucket's entries in order, charging each, until every stored
 * key slot of one matches. The oracle the indexed probe of the frozen
 * table and of the online-fill overlay must reproduce exactly.
 */
class ReferenceScan
{
  public:
    struct Result {
        bool hit = false;
        uint32_t candidates = 0;
        uint64_t bytes = 0;
        uint32_t ordinal = 0;
        std::vector<events::FieldValue> outputs;
    };

    /** Take @p table's selections; entries are added separately. */
    explicit ReferenceScan(const FrozenTable &table)
        : schema_(table.schema())
    {
        for (int t = 0; t < events::kNumEventTypes; ++t) {
            Type &ty = types_[t];
            ty.selected =
                table.selectedVector(static_cast<events::EventType>(t));
            for (events::FieldId fid : ty.selected) {
                const auto &d = schema_.def(fid);
                ty.selected_bytes += d.size_bytes;
                ty.is_event.push_back(d.in_cat ==
                                      events::InputCategory::Event);
            }
        }
    }

    /** Every entry of @p table in ordinal order, duplicates kept. */
    void addAll(const FrozenTable &table)
    {
        games::HandlerExecution rec;
        for (int t = 0; t < events::kNumEventTypes; ++t) {
            rec.type = static_cast<events::EventType>(t);
            const std::vector<events::FieldId> sel =
                table.selectedVector(rec.type);
            table.visitEntries(rec.type, [&](const EntryView &v) {
                rec.inputs.clear();
                for (size_t k = 0; k < v.slots.size(); ++k)
                    rec.inputs.push_back({sel[v.slots[k]], v.values[k]});
                rec.outputs.clear();
                for (size_t k = 0; k < v.out_ids.size(); ++k)
                    rec.outputs.push_back({v.out_ids[k], v.out_values[k]});
                add(rec, false);
            });
        }
    }

    /** Append @p rec's entry; with @p dedup an entry whose key is
     *  already held is dropped, as MemoTable::insert drops it. */
    bool add(const games::HandlerExecution &rec, bool dedup)
    {
        Type &ty = types_[static_cast<int>(rec.type)];
        if (ty.selected.empty())
            return false;
        std::vector<events::FieldValue> inputs = rec.inputs;
        events::canonicalize(inputs);
        Entry e;
        size_t si = 0;
        for (const auto &fv : inputs) {
            while (si < ty.selected.size() && ty.selected[si] < fv.id)
                ++si;
            if (si < ty.selected.size() && ty.selected[si] == fv.id) {
                e.slots.push_back(static_cast<uint32_t>(si));
                e.values.push_back(fv.value);
                e.bytes += schema_.def(fv.id).size_bytes;
            }
        }
        for (const auto &fv : rec.outputs)
            e.bytes += schema_.def(fv.id).size_bytes;
        e.outputs = rec.outputs;
        e.ordinal = next_ordinal_++;
        auto &bucket = ty.buckets[subkey(ty, inputs)];
        if (dedup)
            for (const Entry &o : bucket)
                if (o.slots == e.slots && o.values == e.values)
                    return false;
        bucket.push_back(std::move(e));
        return true;
    }

    void clear()
    {
        for (Type &ty : types_)
            ty.buckets.clear();
    }

    Result lookup(const events::EventObject &ev,
                  const games::Game &game) const
    {
        const Type &ty = types_[static_cast<int>(ev.type)];
        Result r;
        if (ty.selected.empty())
            return r;
        r.bytes = ty.selected_bytes;
        auto it = ty.buckets.find(subkey(ty, ev.fields));
        if (it == ty.buckets.end())
            return r;
        size_t n = ty.selected.size();
        std::vector<uint64_t> values(n, 0);
        std::vector<bool> present(n, false);
        for (size_t i = 0; i < n; ++i) {
            if (ty.is_event[i]) {
                const events::FieldValue *fv =
                    events::findField(ev.fields, ty.selected[i]);
                present[i] = fv != nullptr;
                values[i] = fv ? fv->value : 0;
            } else {
                present[i] =
                    game.gatherInputValue(ty.selected[i], values[i]);
            }
        }
        for (const Entry &e : it->second) {
            ++r.candidates;
            r.bytes += e.bytes + MemoTable::kEntryHeaderBytes;
            bool match = true;
            for (size_t k = 0; k < e.slots.size() && match; ++k)
                match = present[e.slots[k]] &&
                        values[e.slots[k]] == e.values[k];
            if (match) {
                r.hit = true;
                r.ordinal = e.ordinal;
                r.outputs = e.outputs;
                return r;
            }
        }
        return r;
    }

  private:
    struct Entry {
        std::vector<uint32_t> slots;
        std::vector<uint64_t> values;
        std::vector<events::FieldValue> outputs;
        uint32_t bytes = 0;
        uint32_t ordinal = 0;
    };
    struct Type {
        std::vector<events::FieldId> selected;
        std::vector<uint8_t> is_event;
        uint64_t selected_bytes = 0;
        std::unordered_map<uint64_t, std::vector<Entry>> buckets;
    };

    uint64_t subkey(const Type &ty,
                    const std::vector<events::FieldValue> &fields) const
    {
        uint64_t h = 0xe4e27000ULL;
        for (size_t i = 0; i < ty.selected.size(); ++i) {
            if (!ty.is_event[i])
                continue;
            const events::FieldValue *fv =
                events::findField(fields, ty.selected[i]);
            h = util::mixCombine(
                h, util::mixCombine(
                       ty.selected[i],
                       util::mixCombine(fv ? 1 : 0, fv ? fv->value : 0)));
        }
        return h;
    }

    events::FieldSchema schema_;
    std::array<Type, events::kNumEventTypes> types_;
    uint32_t next_ordinal_ = 0;
};

/** The frozen lookup of @p ev agrees with the reference scan. */
::testing::AssertionResult
sameLookup(const FrozenTable &table, const ReferenceScan &ref,
           const events::EventObject &ev, const games::Game &game,
           LookupScratch &scratch)
{
    FrozenLookup f = table.lookup(ev, game, scratch);
    ReferenceScan::Result r = ref.lookup(ev, game);
    std::vector<events::FieldValue> outputs;
    for (uint32_t o = 0; o < f.nout; ++o)
        outputs.push_back({f.out_ids[o], f.out_values[o]});
    if (f.hit != r.hit || f.candidates != r.candidates ||
        f.bytes_scanned != r.bytes ||
        (r.hit && (f.entry_ordinal != r.ordinal || outputs != r.outputs)))
        return ::testing::AssertionFailure()
               << "indexed hit " << f.hit << " candidates "
               << f.candidates << " bytes " << f.bytes_scanned
               << " ordinal " << f.entry_ordinal << "; reference hit "
               << r.hit << " candidates " << r.candidates << " bytes "
               << r.bytes << " ordinal " << r.ordinal;
    return ::testing::AssertionSuccess();
}

/** The overlay lookup of @p ev, as SnipScheme makes it when the
 *  frozen table is inactive, agrees with the reference scan. */
::testing::AssertionResult
sameOverlayLookup(const FrozenTable &frozen, const MemoTable &overlay,
                  const ReferenceScan &ref,
                  const events::EventObject &ev, const games::Game &game,
                  LookupScratch &scratch)
{
    ReferenceScan::Result o;
    if (frozen.deployed(ev.type)) {
        BucketMatch m = overlay.match(
            ev.type, frozen.gather(ev, game, scratch), scratch);
        o.candidates = m.candidates;
        o.bytes = frozen.selectedBytes(ev.type) + m.bytes;
        o.hit = m.hit();
        if (o.hit)
            overlay.outputs(ev.type, m.entry, o.outputs);
    }
    ReferenceScan::Result r = ref.lookup(ev, game);
    if (o.hit != r.hit || o.candidates != r.candidates ||
        o.bytes != r.bytes || (r.hit && o.outputs != r.outputs))
        return ::testing::AssertionFailure()
               << "overlay hit " << o.hit << " candidates "
               << o.candidates << " bytes " << o.bytes
               << "; reference hit " << r.hit << " candidates "
               << r.candidates << " bytes " << r.bytes;
    return ::testing::AssertionSuccess();
}

// Corrupted "SNPF" arenas must never crash attach(): truncations are
// always rejected (the directory's total_size can't match), and bit
// flips either fail validation or land in stored values, in which
// case the view must still probe exactly like the reference scan over
// what it holds (asan/ubsan verify the bounds). SNIP_FUZZ_ITERS
// cranks the iteration count in CI.
TEST_F(MemoTableTest, FrozenArenaCorruptionFuzz)
{
    size_t iters = 64;
    if (const char *env = std::getenv("SNIP_FUZZ_ITERS"))
        iters = static_cast<size_t>(std::strtoull(env, nullptr, 10));

    util::Rng rng(0xc0441457ULL);
    std::vector<events::EventObject> seen;
    for (int i = 0; i < 48; ++i) {
        table_->insert(nextExecution(rng));
        seen.push_back(last_event_);
    }
    auto frozen = table_->freeze();
    size_t n = frozen->arenaSize();
    ASSERT_GT(n, 16u);

    // Probe @p table like the reference scan over its own entries.
    auto probesLikeScan = [&](const FrozenTable &table) {
        ReferenceScan ref(table);
        ref.addAll(table);
        LookupScratch scratch;
        for (size_t e = 0; e < 8 && e < seen.size(); ++e)
            ASSERT_TRUE(sameLookup(table, ref, seen[e], *game_, scratch))
                << "event " << e;
    };
    for (size_t i = 0; i < iters; ++i) {
        auto bytes = std::make_shared<std::vector<uint64_t>>(
            (n + 7) / 8);
        std::memcpy(bytes->data(), frozen->arenaData(), n);
        auto *raw = reinterpret_cast<uint8_t *>(bytes->data());
        size_t len = n;
        if (rng.next() % 2 == 0) {
            len = rng.next() % n;  // truncate
        } else {
            size_t flips = 1 + rng.next() % 8;
            for (size_t f = 0; f < flips; ++f)
                raw[rng.next() % n] ^=
                    static_cast<uint8_t>(1u + rng.next() % 255);
        }
        auto res = FrozenTable::attach(raw, len, bytes,
                                       game_->schema());
        if (len < n) {
            EXPECT_FALSE(res.ok()) << "truncation accepted, " << len;
            continue;
        }
        if (!res.ok())
            continue;  // structural validation caught the flip
        // Flip landed in stored data: still a valid, bounded view.
        probesLikeScan(*res.value());
    }

    // CRC-resealed structural mutations of the entries inside a
    // package, each keeping every count and offset in range, so only
    // the key-slot and canonical-order checks (or the version) can
    // reject it.
    SnipModel model;
    model.game = game_->name();
    model.table = table_->freeze();
    util::ByteBuffer pkg;
    packModel(model, pkg);
    const std::vector<uint8_t> &bytes = pkg.data();
    const uint8_t magic[4] = {0x46, 0x50, 0x4e, 0x53};  // "SNPF", LE
    size_t arena = std::search(bytes.begin(), bytes.end(), magic,
                               magic + 4) -
                   bytes.begin();
    ASSERT_LT(arena, bytes.size());
    auto rd32 = [&](size_t off) {
        uint32_t v;
        std::memcpy(&v, bytes.data() + off, 4);
        return v;
    };
    // The one deployed type's 40-byte directory record follows the
    // 16-byte arena header: +8 entry count, +16 key offsets, +24 key
    // slots, +28 key values.
    const size_t rec = arena + 16;
    const size_t key_off = arena + rd32(rec + 16);
    const size_t key_slots = arena + rd32(rec + 24);
    const size_t key_values = arena + rd32(rec + 28);
    auto keyAt = [&](size_t e) { return rd32(key_off + 4 * e); };
    std::vector<uint64_t> subkeys;
    std::vector<uint32_t> widths;
    table_->visitEntries(events::EventType::Touch, [&](const EntryView &v) {
        subkeys.push_back(v.subkey);
        widths.push_back(static_cast<uint32_t>(v.slots.size()));
    });
    ASSERT_EQ(subkeys.size(), rd32(rec + 8));
    ASSERT_GE(widths[0], 2u);
    // The last entry as wide as entry 0, in another bucket.
    size_t last = subkeys.size() - 1;
    while (last > 0 &&
           (widths[last] != widths[0] || subkeys[last] == subkeys[0]))
        --last;
    ASSERT_GT(last, 0u);
    // A stored history-side key value: its flip changes a key, never
    // a bucket.
    const std::vector<events::FieldId> &sel =
        table_->selected(events::EventType::Touch);
    size_t hist_key = SIZE_MAX;
    for (uint32_t k = 0; k < keyAt(subkeys.size()) && hist_key == SIZE_MAX;
         ++k)
        if (game_->schema().def(sel[rd32(key_slots + 4 * k)]).in_cat !=
            events::InputCategory::Event)
            hist_key = k;
    ASSERT_NE(hist_key, SIZE_MAX);

    auto deploy = [&](const std::function<void(std::vector<uint8_t> &)>
                          &mutate) {
        std::vector<uint8_t> b = bytes;
        mutate(b);
        auto out = std::make_shared<util::ByteBuffer>();
        util::sealEnvelope(kModelMagic, kModelVersion,
                           std::span<const uint8_t>(b).subspan(
                               util::kEnvelopeHeaderBytes,
                               b.size() - util::kEnvelopeHeaderBytes -
                                   util::kEnvelopeFooterBytes),
                           *out);
        return deployModel(out);
    };
    auto rejected = [&](const util::Result<SnipModel> &r,
                        const std::string &why) {
        if (r.ok())
            return ::testing::AssertionFailure() << "accepted";
        if (r.status().message().find(why) == std::string::npos)
            return ::testing::AssertionFailure()
                   << "rejected with: " << r.status().message();
        return ::testing::AssertionSuccess();
    };
    auto put32 = [](std::vector<uint8_t> &b, size_t off, uint32_t v) {
        std::memcpy(b.data() + off, &v, 4);
    };
    auto swapBytes = [](std::vector<uint8_t> &b, size_t x, size_t y,
                        size_t len) {
        std::swap_ranges(b.begin() + x, b.begin() + x + len,
                         b.begin() + y);
    };

    EXPECT_TRUE(deploy([](std::vector<uint8_t> &) {}).ok());
    EXPECT_TRUE(rejected(deploy([&](std::vector<uint8_t> &b) {
                             // Entry 0 and `last` trade keys: the
                             // derived subkeys descend.
                             swapBytes(b, key_slots + 4 * keyAt(0),
                                       key_slots + 4 * keyAt(last),
                                       4 * widths[0]);
                             swapBytes(b, key_values + 8 * keyAt(0),
                                       key_values + 8 * keyAt(last),
                                       8 * widths[0]);
                         }),
                         "not in canonical order"));
    EXPECT_TRUE(rejected(deploy([&](std::vector<uint8_t> &b) {
                             put32(b, key_slots + 4 * (keyAt(0) + 1),
                                   rd32(key_slots + 4 * keyAt(0)));
                         }),
                         "key slots not ascending"))
        << "repeated slot";
    EXPECT_TRUE(rejected(deploy([&](std::vector<uint8_t> &b) {
                             swapBytes(b, key_slots + 4 * keyAt(0),
                                       key_slots + 4 * (keyAt(0) + 1), 4);
                         }),
                         "key slots not ascending"))
        << "descending slots";
    for (uint32_t old_version : {1u, 2u})
        EXPECT_TRUE(rejected(deploy([&](std::vector<uint8_t> &b) {
                                 put32(b, arena + 4, old_version);
                             }),
                             "frozen: unsupported version " +
                                 std::to_string(old_version)));

    util::Result<SnipModel> flipped = deploy([&](std::vector<uint8_t> &b) {
        b[key_values + 8 * hist_key] ^= 0x01;
    });
    ASSERT_TRUE(flipped.ok()) << flipped.status().message();
    const FrozenTable &table = *flipped.value().table;
    size_t i = 0;
    table.visitEntries(events::EventType::Touch, [&](const EntryView &v) {
        EXPECT_EQ(v.subkey, subkeys[i++]);
    });
    EXPECT_EQ(i, subkeys.size());
    probesLikeScan(table);
}

SnipModel goldenModel(const std::string &name);

// The full-key index must make exactly the decisions of the linear
// bucket scan it replaced: hit or miss, matched entry ordinal and
// outputs, candidates and bytes charged. Every catalog model over a
// randomized 10k-event session, the online-fill overlay over random
// insert sequences with watchdog clears, and crafted tables with
// subset-shape entries, absent fields and same-key duplicates in one
// bucket.
TEST(FrozenTableTest, IndexedProbeMatchesReferenceScan)
{
    for (const std::string &name : games::allGameNames()) {
        SCOPED_TRACE(name);
        SnipModel model = goldenModel(name);
        const FrozenTable &frozen = *model.table;
        ReferenceScan ref(frozen);
        ref.addAll(frozen);
        MemoTable overlay(frozen);
        ReferenceScan ref_overlay(frozen);
        MemoTable memo(frozen.schema());
        for (int t = 0; t < events::kNumEventTypes; ++t) {
            auto type = static_cast<events::EventType>(t);
            if (frozen.deployed(type))
                memo.setSelected(type, frozen.selectedVector(type));
        }

        auto game = games::makeGame(name);
        const auto &mix = game->params().mix;
        util::Rng rng(0xf00d);
        events::EventObject ev;
        games::HandlerExecution ex;
        LookupScratch scratch;
        RecordKey key;
        uint64_t hits = 0, overlay_hits = 0, clears = 0;
        for (int i = 0; i < 10000; ++i) {
            game->makeEvent(mix[rng.uniformInt(0, mix.size() - 1)].type,
                            0.01 * i, rng, ev);
            ASSERT_TRUE(sameLookup(frozen, ref, ev, *game, scratch))
                << "event " << i;
            ASSERT_TRUE(sameOverlayLookup(frozen, overlay, ref_overlay,
                                          ev, *game, scratch))
                << "event " << i;
            hits += ref.lookup(ev, *game).hit;
            overlay_hits += ref_overlay.lookup(ev, *game).hit;
            game->process(ev, ex);
            game->applyOutputs(ex.outputs);
            if (rng.next() % 2 == 0 && overlay.project(ex, key)) {
                ASSERT_EQ(overlay.insert(key, ex.outputs),
                          ref_overlay.add(ex, true))
                    << "event " << i;
                memo.insert(ex);
            }
            if (i % 2500 == 2499) {  // the watchdog's clear
                overlay.clear();
                ref_overlay.clear();
                memo.clear();
                ++clears;
            }
            ASSERT_EQ(overlay.entryCount(), memo.entryCount());
            ASSERT_EQ(overlay.totalBytes(), memo.totalBytes());
        }
        EXPECT_GT(hits, 0u);
        EXPECT_GT(overlay_hits, 0u);
        EXPECT_EQ(clears, 4u);
    }

    // Crafted: one colorphun Touch bucket (two event-side key fields)
    // whose entries store different subsets of two history fields.
    auto game = games::makeGame("colorphun");
    const events::FieldSchema &schema = game->schema();
    util::Rng rng(5);
    events::EventObject touch =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    ASSERT_GE(touch.fields.size(), 2u);
    const events::FieldId e1 = touch.fields[0].id;
    const events::FieldId e2 = touch.fields[1].id;
    const events::FieldId mode = schema.find("h.mode");
    const events::FieldId streak = schema.find("h.streak");
    const events::FieldId out = schema.find("o.mode");
    ASSERT_NE(mode, events::kInvalidField);
    ASSERT_NE(streak, events::kInvalidField);
    MemoTable crafted(schema);
    crafted.setSelected(events::EventType::Touch, {e1, e2, mode, streak});
    auto record = [&](std::vector<events::FieldValue> inputs,
                      uint64_t output) {
        games::HandlerExecution rec;
        rec.type = events::EventType::Touch;
        rec.inputs = std::move(inputs);
        rec.outputs = {{out, output}};
        crafted.insert(rec);
    };
    record({{e1, 7}, {e2, 9}, {mode, 1}, {streak, 1}}, 10);  // pos 0
    record({{e1, 7}, {e2, 9}, {mode, 1}}, 11);               // pos 1
    record({{e1, 7}, {e2, 9}, {mode, 2}, {streak, 2}}, 12);  // pos 2
    record({{e1, 7}, {e2, 9}}, 13);                          // pos 3
    record({{e1, 7}, {e2, 9}, {mode, 4}, {streak, 4}}, 14);  // pos 4
    record({{e1, 7}, {mode, 1}}, 15);  // e2 absent: its own bucket
    ASSERT_EQ(crafted.entryCount(), 6u);

    events::EventObject both, e1_only;
    both.type = e1_only.type = events::EventType::Touch;
    both.fields = {{e1, 7}, {e2, 9}};
    e1_only.fields = {{e1, 7}};
    auto setState = [&](uint64_t m, uint64_t s) {
        game->state().apply(out, m);
        game->state().apply(schema.find("o.streak"), s);
    };
    // (mode, streak) -> candidates the scan walks to its match; at
    // (4, 4) the shape-less entry at pos 3 precedes the full match.
    const std::vector<std::array<uint64_t, 2>> cases = {
        {1, 1}, {1, 5}, {2, 2}, {3, 3}, {4, 4}};
    auto checkCrafted = [&](const FrozenTable &table,
                            const std::vector<uint32_t> &want) {
        ReferenceScan cref(table);
        cref.addAll(table);
        LookupScratch scratch;
        for (size_t c = 0; c < cases.size(); ++c) {
            setState(cases[c][0], cases[c][1]);
            ASSERT_TRUE(sameLookup(table, cref, both, *game, scratch))
                << "case " << c;
            FrozenLookup f = table.lookup(both, *game, scratch);
            EXPECT_TRUE(f.hit) << "case " << c;
            EXPECT_EQ(f.candidates, want[c]) << "case " << c;
            ASSERT_TRUE(sameLookup(table, cref, e1_only, *game, scratch))
                << "case " << c;
            EXPECT_EQ(table.lookup(e1_only, *game, scratch).hit,
                      cases[c][0] == 1)
                << "case " << c;
        }
    };
    auto frozen = crafted.freeze();
    checkCrafted(*frozen, {1, 2, 3, 4, 4});

    // Same-key duplicates in one bucket: overwrite pos 2's key with
    // pos 0's (same shape). The earliest wins, and (2, 2) now falls
    // through to the shape-less entry at pos 3.
    std::vector<uint64_t> words((frozen->arenaSize() + 7) / 8);
    std::memcpy(words.data(), frozen->arenaData(), frozen->arenaSize());
    auto *raw = reinterpret_cast<uint8_t *>(words.data());
    auto rd32 = [&](size_t off) {
        uint32_t v;
        std::memcpy(&v, raw + off, 4);
        return v;
    };
    // One deployed type: its 40-byte directory record follows the
    // 16-byte header; +16 key offsets, +28 key values. The bucket of
    // five starts at entry 0 unless the lone entry ({e1, mode}, two
    // slots) precedes it.
    const size_t rec = 16;
    const size_t key_off = rd32(rec + 16), key_values = rd32(rec + 28);
    const uint32_t begin = rd32(key_off + 4) - rd32(key_off) == 2 ? 1 : 0;
    const uint32_t widths[] = {4, 3, 4, 2, 4};
    for (uint32_t p = 0; p < 5; ++p)
        ASSERT_EQ(rd32(key_off + 4 * (begin + p + 1)) -
                      rd32(key_off + 4 * (begin + p)),
                  widths[p])
            << "pos " << p;
    const uint32_t k0 = rd32(key_off + 4 * begin);
    const uint32_t k2 = rd32(key_off + 4 * (begin + 2));
    std::memcpy(raw + key_values + 8 * k2, raw + key_values + 8 * k0, 32);
    auto dup = FrozenTable::attach(raw, frozen->arenaSize(), nullptr,
                                   schema);
    ASSERT_TRUE(dup.ok()) << dup.status().message();
    checkCrafted(*dup.value(), {1, 2, 4, 4, 4});
}

// Pins the bytes of freeze()'s arena, the one thing that leaves the
// build-side store: every catalog model built from a 30 s profile, a
// merged aggregate whose destination keeps a strict subset of the
// sources' fields (so distinct source keys collapse, and same keys
// carry different outputs), the table unpackModel decodes, and that
// table merged into an empty store and frozen again. The decoded
// table's buckets, folded from each stored key, are the ones the
// build-side store's projections fold.
TEST_F(MemoTableTest, FreezeGoldenDigest)
{
    auto crcOf = [](const FrozenTable &table) {
        return util::crc32(table.arenaData(), table.arenaSize());
    };
    const std::vector<std::pair<std::string, uint32_t>> catalog = {
        {"colorphun", 0xb5d4756cu},    {"memory_game", 0x290d5c73u},
        {"candy_crush", 0x670823c5u},  {"greenwall", 0xe3b8b3f0u},
        {"ab_evolution", 0xb8f716feu}, {"chase_whisply", 0x91895723u},
        {"race_kings", 0xffe5a8deu}};
    ASSERT_EQ(catalog.size(), games::allGameNames().size());
    for (const auto &[name, want] : catalog) {
        SCOPED_TRACE(name);
        SnipModel model = goldenModel(name);
        ASSERT_NE(model.table, nullptr);
        EXPECT_EQ(crcOf(*model.table), want);
        util::ByteBuffer pkg;
        packModel(model, pkg);
        auto unpacked = unpackModel(pkg);
        ASSERT_TRUE(unpacked.ok()) << unpacked.status().message();
        const FrozenTable &decoded = *unpacked.value().table;
        EXPECT_EQ(crcOf(decoded), want);
        MemoTable remerged(decoded);
        remerged.mergeFrom(decoded);
        EXPECT_EQ(crcOf(*remerged.freeze()), want);
        for (int t = 0; t < events::kNumEventTypes; ++t) {
            auto type = static_cast<events::EventType>(t);
            std::vector<uint64_t> built, derived;
            remerged.visitEntries(type, [&](const EntryView &v) {
                built.push_back(v.subkey);
            });
            decoded.visitEntries(type, [&](const EntryView &v) {
                derived.push_back(v.subkey);
            });
            EXPECT_EQ(derived, built) << events::eventTypeName(type);
        }
    }

    ASSERT_GE(selected_.size(), 2u);
    const events::EventType touch = events::EventType::Touch;
    MemoTable a(game_->schema()), b(game_->schema());
    a.setSelected(touch, selected_);
    b.setSelected(touch, selected_);
    util::Rng rng(0x3e76e);
    for (int i = 0; i < 400; ++i) {
        games::HandlerExecution ex = nextExecution(rng);
        game_->applyOutputs(ex.outputs);
        (i % 2 ? a : b).insert(ex);
        if (i % 5 == 0 && !ex.outputs.empty()) {
            ex.outputs[0].value ^= 0x5a;
            (i % 2 ? b : a).insert(ex);
        }
    }
    MemoTable dest(game_->schema());
    dest.setSelected(touch, std::vector<events::FieldId>(
                                selected_.begin(), selected_.end() - 1));
    dest.mergeFrom(*a.freeze());
    dest.mergeFrom(*b.freeze());
    EXPECT_LT(dest.entryCount(), a.entryCount() + b.entryCount());
    EXPECT_EQ(crcOf(*dest.freeze()), 0x3084a1a9u);
}

/**
 * The build-side store as it was before the flat columns: per type an
 * unordered_map from event subkey to the bucket's entries, each with
 * its own key, slot and output vectors, deduplicated by a linear scan
 * of the bucket. The oracle MemoTable's flat store must reproduce.
 */
class MapStore
{
  public:
    struct Entry {
        std::vector<events::FieldValue> key_fields;
        std::vector<uint32_t> key_slots;
        std::vector<events::FieldValue> outputs;
        uint32_t entry_bytes = 0;
    };

    explicit MapStore(const events::FieldSchema &schema) : schema_(schema) {}

    void setSelected(events::EventType type,
                     std::vector<events::FieldId> selected)
    {
        Type &ty = types_[static_cast<int>(type)];
        std::sort(selected.begin(), selected.end());
        ty.selected = std::move(selected);
        for (events::FieldId fid : ty.selected)
            if (schema_.def(fid).in_cat == events::InputCategory::Event)
                ty.selected_event.push_back(fid);
    }

    /** The subkey over the selected event fields of @p fields. */
    uint64_t subkey(events::EventType type,
                    const std::vector<events::FieldValue> &fields) const
    {
        uint64_t h = 0xe4e27000ULL;
        for (events::FieldId fid :
             types_[static_cast<int>(type)].selected_event) {
            const events::FieldValue *fv = events::findField(fields, fid);
            h = util::mixCombine(
                h, util::mixCombine(
                       fid, util::mixCombine(fv ? 1 : 0, fv ? fv->value : 0)));
        }
        return h;
    }

    void insert(const games::HandlerExecution &rec)
    {
        Type &ty = types_[static_cast<int>(rec.type)];
        if (ty.selected.empty())
            return;
        std::vector<events::FieldValue> inputs = rec.inputs;
        events::canonicalize(inputs);
        Entry e;
        size_t si = 0;
        for (const auto &fv : inputs) {
            while (si < ty.selected.size() && ty.selected[si] < fv.id)
                ++si;
            if (si < ty.selected.size() && ty.selected[si] == fv.id) {
                e.key_fields.push_back(fv);
                e.key_slots.push_back(static_cast<uint32_t>(si));
                e.entry_bytes += schema_.def(fv.id).size_bytes;
            }
        }
        auto &bucket = ty.buckets[subkey(rec.type, inputs)];
        for (const Entry &o : bucket)
            if (o.key_fields == e.key_fields)
                return;
        e.outputs = rec.outputs;
        for (const auto &fv : e.outputs)
            e.entry_bytes += schema_.def(fv.id).size_bytes;
        bytes_ += e.entry_bytes + MemoTable::kEntryHeaderBytes;
        ++entries_;
        bucket.push_back(std::move(e));
    }

    /** Entries of @p type, buckets by ascending subkey. */
    std::vector<std::pair<uint64_t, const Entry *>>
    canonical(events::EventType type) const
    {
        std::vector<std::pair<uint64_t, const Entry *>> out;
        const Type &ty = types_[static_cast<int>(type)];
        std::vector<uint64_t> subkeys;
        for (const auto &kv : ty.buckets)
            subkeys.push_back(kv.first);
        std::sort(subkeys.begin(), subkeys.end());
        for (uint64_t sk : subkeys)
            for (const Entry &e : ty.buckets.at(sk))
                out.push_back({sk, &e});
        return out;
    }

    /** The linear scan of @p subkey's bucket; the match, or null. */
    const Entry *match(events::EventType type, uint64_t subkey,
                       const LookupScratch &in, BucketMatch &m) const
    {
        m = {};
        const Type &ty = types_[static_cast<int>(type)];
        auto it = ty.buckets.find(subkey);
        if (it == ty.buckets.end())
            return nullptr;
        for (const Entry &e : it->second) {
            ++m.candidates;
            m.bytes += e.entry_bytes + MemoTable::kEntryHeaderBytes;
            bool hit = true;
            for (size_t k = 0; k < e.key_slots.size() && hit; ++k)
                hit = in.present[e.key_slots[k]] &&
                      in.values[e.key_slots[k]] == e.key_fields[k].value;
            if (hit)
                return &e;
        }
        return nullptr;
    }

    void clear()
    {
        for (Type &ty : types_)
            ty.buckets.clear();
        entries_ = 0;
        bytes_ = 0;
    }

    size_t entryCount() const { return entries_; }
    uint64_t totalBytes() const { return bytes_; }

  private:
    struct Type {
        std::vector<events::FieldId> selected;
        std::vector<events::FieldId> selected_event;
        std::unordered_map<uint64_t, std::vector<Entry>> buckets;
    };
    events::FieldSchema schema_;
    std::array<Type, events::kNumEventTypes> types_;
    size_t entries_ = 0;
    uint64_t bytes_ = 0;
};

// MemoTable's flat append store against the map store it replaced:
// random records with unsorted inputs, absent selected fields,
// UINT64_MAX values, same keys with different outputs and several key
// shapes per type, over three fills separated by clear() (each refill
// re-inserts the previous fill's records first). Canonical visits,
// counts, bytes and every probe's charge and outputs must agree.
TEST_F(MemoTableTest, FlatStoreMatchesMapReference)
{
    events::FieldSchema schema;
    std::vector<events::FieldId> inputs;
    for (int i = 0; i < 4; ++i)
        inputs.push_back(schema.addInput("e" + std::to_string(i),
                                         events::InputCategory::Event,
                                         2 + i));
    for (int i = 0; i < 4; ++i)
        inputs.push_back(schema.addInput("h" + std::to_string(i),
                                         events::InputCategory::History,
                                         4 + i));
    std::vector<events::FieldId> outs;
    for (int i = 0; i < 3; ++i)
        outs.push_back(schema.addOutput("o" + std::to_string(i),
                                        events::OutputCategory::History,
                                        8 * (i + 1)));
    const std::array<events::EventType, 3> types = {
        events::EventType::Touch, events::EventType::Drag,
        events::EventType::Swipe};
    // Touch and Drag select different subsets (unsorted on purpose);
    // Swipe stays unconfigured, so its records must be dropped.
    const std::array<std::vector<events::FieldId>, 2> selections = {
        std::vector<events::FieldId>{inputs[5], inputs[0], inputs[1],
                                     inputs[4], inputs[6]},
        std::vector<events::FieldId>{inputs[2], inputs[7]}};

    MemoTable flat(schema);
    MapStore ref(schema);
    for (size_t t = 0; t < selections.size(); ++t) {
        flat.setSelected(types[t], selections[t]);
        ref.setSelected(types[t], selections[t]);
    }

    util::Rng rng(0xf1a7);
    const uint64_t domain[] = {0, 1, 2, UINT64_MAX};
    auto value = [&] { return domain[rng.uniformInt(0, 3)]; };
    auto randomRecord = [&] {
        games::HandlerExecution rec;
        rec.type = types[rng.uniformInt(0, types.size() - 1)];
        for (events::FieldId fid : inputs)
            if (rng.next() % 4 != 0)  // absent a quarter of the time
                rec.inputs.push_back({fid, value()});
        if (rng.next() % 2)
            std::reverse(rec.inputs.begin(), rec.inputs.end());
        for (events::FieldId fid : outs)
            if (rng.next() % 2)
                rec.outputs.push_back({fid, rng.next() % 8});
        return rec;
    };

    // A probe gathered from a random record: present slots carry its
    // values (sometimes perturbed), and the subkey is the map store's.
    LookupScratch in;
    std::vector<events::FieldValue> outputs;
    uint64_t hits = 0, probes = 0;
    auto probe = [&](const games::HandlerExecution &rec) {
        const std::vector<events::FieldId> &sel = flat.selected(rec.type);
        if (sel.empty())
            return;
        in.values.assign(sel.size(), 0);
        in.present.assign(sel.size(), 0);
        std::vector<events::FieldValue> event_fields;
        for (size_t i = 0; i < sel.size(); ++i) {
            for (const auto &fv : rec.inputs)
                if (fv.id == sel[i]) {
                    in.present[i] = 1;
                    in.values[i] = rng.next() % 8 ? fv.value : value();
                }
            if (in.present[i] && schema.def(sel[i]).in_cat ==
                                     events::InputCategory::Event)
                event_fields.push_back({sel[i], in.values[i]});
        }
        const uint64_t subkey = ref.subkey(rec.type, event_fields);
        BucketMatch want;
        const MapStore::Entry *e = ref.match(rec.type, subkey, in, want);
        BucketMatch got = flat.match(rec.type, subkey, in);
        ASSERT_EQ(got.hit(), e != nullptr);
        ASSERT_EQ(got.candidates, want.candidates);
        ASSERT_EQ(got.bytes, want.bytes);
        ++probes;
        if (!e)
            return;
        ++hits;
        flat.outputs(rec.type, got.entry, outputs);
        ASSERT_EQ(outputs, e->outputs);
    };
    auto sameVisits = [&] {
        for (events::EventType type : types) {
            auto want = ref.canonical(type);
            size_t i = 0;
            flat.visitEntries(type, [&](const EntryView &v) {
                ASSERT_LT(i, want.size());
                const auto &[subkey, e] = want[i++];
                EXPECT_EQ(v.subkey, subkey);
                EXPECT_EQ(std::vector<uint32_t>(v.slots.begin(),
                                                v.slots.end()),
                          e->key_slots);
                ASSERT_EQ(v.values.size(), e->key_fields.size());
                for (size_t k = 0; k < v.values.size(); ++k)
                    EXPECT_EQ(v.values[k], e->key_fields[k].value);
                ASSERT_EQ(v.out_ids.size(), e->outputs.size());
                for (size_t k = 0; k < v.out_ids.size(); ++k) {
                    EXPECT_EQ(v.out_ids[k], e->outputs[k].id);
                    EXPECT_EQ(v.out_values[k], e->outputs[k].value);
                }
            });
            EXPECT_EQ(i, want.size());
            EXPECT_EQ(flat.entryCount(type), want.size());
        }
        EXPECT_EQ(flat.entryCount(), ref.entryCount());
        EXPECT_EQ(flat.totalBytes(), ref.totalBytes());
    };

    std::vector<games::HandlerExecution> previous;
    for (int fill = 0; fill < 3; ++fill) {
        SCOPED_TRACE(fill);
        std::vector<games::HandlerExecution> records = previous;
        for (int i = 0; i < 1500; ++i)
            records.push_back(randomRecord());
        for (const auto &rec : records) {
            flat.insert(rec);
            ref.insert(rec);
            ASSERT_EQ(flat.entryCount(), ref.entryCount());
            probe(records[rng.uniformInt(0, records.size() - 1)]);
            probe(randomRecord());
        }
        sameVisits();
        flat.clear();
        ref.clear();
        sameVisits();
        previous.assign(records.end() - 200, records.end());
    }
    EXPECT_GT(hits, probes / 4);
    EXPECT_LT(hits, probes);
}

// ------------------------------------------------------ lookup tables

class AnalysisTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        game_ = games::makeGame("ab_evolution");
        BaselineScheme baseline;
        SimulationConfig cfg;
        cfg.duration_s = 40.0;
        cfg.record_events = true;
        cfg.seed = 31;
        SessionResult res = runSession(*game_, baseline, cfg);
        auto replica = games::makeGame("ab_evolution");
        profile_ = trace::Replayer::replay(res.trace, *replica);
    }

    std::unique_ptr<games::Game> game_;
    trace::Profile profile_;
};

TEST_F(AnalysisTest, NaiveCurveMonotone)
{
    NaiveTableAnalysis naive(profile_, game_->schema());
    ASSERT_FALSE(naive.curve().empty());
    double prev_cov = -1.0;
    uint64_t prev_entries = 0;
    for (const auto &p : naive.curve()) {
        EXPECT_GE(p.coverage, prev_cov);
        EXPECT_GE(p.entries, prev_entries);
        EXPECT_EQ(p.input_bytes, p.entries * naive.rowInputBytes());
        prev_cov = p.coverage;
        prev_entries = p.entries;
    }
    EXPECT_GT(naive.rowInputBytes(), 1000000u);  // ~1 MB rows
}

TEST_F(AnalysisTest, NaiveBytesForCoverage)
{
    NaiveTableAnalysis naive(profile_, game_->schema());
    double final_cov = naive.finalCoverage();
    if (final_cov > 0.005) {
        EXPECT_GT(naive.bytesForCoverage(final_cov / 2), 0u);
    }
    EXPECT_EQ(naive.bytesForCoverage(0.999), 0u);
}

TEST_F(AnalysisTest, InEventTableSmallerButErroneous)
{
    InEventTableResult r =
        analyzeInEventTable(profile_, game_->schema());
    EXPECT_GT(r.entries, 0u);
    EXPECT_LT(r.table_bytes, r.naive_bytes / 100);
    EXPECT_GT(r.coverage, 0.02);
    EXPECT_GT(r.erroneous_hit_fraction, 0.01);
    double cat_sum = r.err_temp_only + r.err_history + r.err_extern;
    EXPECT_NEAR(cat_sum, 1.0, 1e-9);
}

// -------------------------------------------------------- SnipModel

TEST_F(AnalysisTest, BuildModelSelectsPerType)
{
    SnipModel model = buildSnipModel(profile_, *game_);
    EXPECT_EQ(model.game, "ab_evolution");
    EXPECT_GE(model.types.size(), 2u);
    ASSERT_NE(model.table, nullptr);
    EXPECT_GT(model.table->entryCount(), 10u);
    EXPECT_GT(model.selectedBytes(), 0u);
    // Selected sets must be small relative to the full record.
    EXPECT_LT(model.selectedBytes(),
              game_->schema().totalInputBytes() / 20);
}

TEST_F(AnalysisTest, DeveloperOverrideForcesField)
{
    SnipConfig cfg;
    cfg.overrides.force_keep = {"drag.path"};  // a noise field
    SnipModel model = buildSnipModel(profile_, *game_, cfg);
    events::FieldId path = game_->schema().find("drag.path");
    bool kept = false;
    for (const auto &t : model.types) {
        if (t.type != events::EventType::Drag)
            continue;
        kept = std::find(t.selection.selected.begin(),
                         t.selection.selected.end(),
                         path) != t.selection.selected.end();
    }
    EXPECT_TRUE(kept);
}

TEST_F(AnalysisTest, UnknownOverrideFatal)
{
    bool prev = util::setThrowOnError(true);
    SnipConfig cfg;
    cfg.overrides.force_keep = {"not.a.field"};
    EXPECT_THROW(buildSnipModel(profile_, *game_, cfg),
                 std::runtime_error);
    util::setThrowOnError(prev);
}

TEST_F(AnalysisTest, SparseTypesLeftUndeployed)
{
    SnipConfig cfg;
    cfg.min_records_per_type = 1u << 30;
    SnipModel model = buildSnipModel(profile_, *game_, cfg);
    EXPECT_TRUE(model.types.empty());
    EXPECT_EQ(model.table->entryCount(), 0u);
}

// Shrink deploys the knee set, so the selection buildSnipModel keeps
// ends at the knee. The Fig. 9 tail is charted only on request, and
// charting it only appends to the curve.
class SelectionTest : public AnalysisTest
{
};

TEST_F(SelectionTest, DeployedSelectionChartsNoTail)
{
    SnipConfig cfg;
    SnipModel model = buildSnipModel(profile_, *game_, cfg);
    ASSERT_FALSE(model.types.empty());
    size_t trimmed = 0;
    for (const TypeModel &t : model.types) {
        const ml::SelectionResult &sel = t.selection;
        for (const ml::TrimStep &s : sel.curve)
            EXPECT_LE(s.error, kShrinkMaxError);
        if (!sel.curve.empty()) {
            EXPECT_EQ(sel.curve.back().remaining_bytes,
                      sel.selected_bytes);
            ++trimmed;
        }
    }
    EXPECT_GT(trimmed, 0u);

    // A synthetic set: the label is a function of a and b; n is noise
    // and h a row-unique 4 kB blob.
    events::FieldSchema schema;
    events::FieldId fa =
        schema.addInput("a", events::InputCategory::Event, 2);
    events::FieldId fb =
        schema.addInput("b", events::InputCategory::History, 4);
    events::FieldId fn =
        schema.addInput("n", events::InputCategory::Event, 8);
    events::FieldId fh =
        schema.addInput("h", events::InputCategory::History, 4096);
    events::FieldId fo =
        schema.addOutput("o", events::OutputCategory::History, 8);
    util::Rng rng(3);
    std::vector<games::HandlerExecution> recs(800);
    std::vector<const games::HandlerExecution *> ptrs;
    for (size_t i = 0; i < recs.size(); ++i) {
        uint64_t a = rng.uniformInt(0, 3), b = rng.uniformInt(0, 2);
        recs[i].type = events::EventType::Touch;
        recs[i].inputs = {{fa, a},
                          {fb, b},
                          {fn, rng.uniformInt(0, 15)},
                          {fh, util::mix64(i)}};
        recs[i].outputs = {{fo, util::mixCombine(a * 31 + b, 7)}};
        recs[i].cpu_instructions = 1000;
        ptrs.push_back(&recs[i]);
    }
    ml::Dataset ds(ptrs, schema);
    ml::SelectionConfig sc;
    sc.max_error = 0.002;
    sc.max_conditional_error = 0.012;
    ml::SelectionResult knee = ml::selectNecessaryInputs(ds, sc);
    ml::SelectionResult charted = knee;
    ml::chartTail(ds, charted, sc);
    EXPECT_EQ(charted.selected, knee.selected);
    EXPECT_EQ(charted.selected_bytes, knee.selected_bytes);
    EXPECT_EQ(charted.selected_error, knee.selected_error);
    EXPECT_EQ(charted.selected_hit_rate, knee.selected_hit_rate);
    EXPECT_EQ(charted.full_error, knee.full_error);
    EXPECT_EQ(charted.full_bytes, knee.full_bytes);
    ASSERT_GT(charted.curve.size(), knee.curve.size());
    for (size_t i = 0; i < knee.curve.size(); ++i) {
        const ml::TrimStep &a = knee.curve[i], &b = charted.curve[i];
        EXPECT_EQ(a.dropped, b.dropped) << "step " << i;
        EXPECT_EQ(a.dropped_cat, b.dropped_cat);
        EXPECT_EQ(a.dropped_bytes, b.dropped_bytes);
        EXPECT_EQ(a.remaining_bytes, b.remaining_bytes);
        EXPECT_EQ(a.error, b.error);
        EXPECT_EQ(a.hit_rate, b.hit_rate);
    }
    EXPECT_GT(charted.curve.back().error, sc.max_error);
}

// ------------------------------------------------------------ Schemes

TEST(Schemes, BaselineNeverSkips)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme s;
    util::Rng rng(1);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision d = s.decide(*game, ev, truth);
    EXPECT_FALSE(d.shortcircuit);
    EXPECT_DOUBLE_EQ(d.cpu_skip_fraction, 0.0);
    EXPECT_FALSE(d.skip_ips);
}

TEST(Schemes, MaxCpuSkipsOnRepeat)
{
    auto game = games::makeGame("colorphun");
    MaxCpuScheme s;
    util::Rng rng(2);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision first = s.decide(*game, ev, truth);
    EXPECT_DOUBLE_EQ(first.cpu_skip_fraction, 0.0);
    s.observe(truth);
    Decision second = s.decide(*game, ev, truth);
    EXPECT_DOUBLE_EQ(second.cpu_skip_fraction,
                     truth.maxcpu_fraction);
    EXPECT_FALSE(second.shortcircuit);
}

TEST(Schemes, MaxIpSkipsIpsOnExactEventRepeat)
{
    auto game = games::makeGame("colorphun");
    MaxIpScheme s;
    util::Rng rng(3);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision first = s.decide(*game, ev, truth);
    EXPECT_FALSE(first.skip_ips);
    s.observe(truth);
    Decision second = s.decide(*game, ev, truth);
    EXPECT_TRUE(second.skip_ips);
    EXPECT_LT(s.ipSleepTimeout(), BaselineScheme().ipSleepTimeout());
}

TEST(Schemes, MaxIpDecideAloneDoesNotLearn)
{
    // The decide/observe protocol: decide() only reads what observe()
    // learned, so an event is not "seen" until observe() runs, and
    // re-deciding without observing never changes the answer.
    auto game = games::makeGame("colorphun");
    MaxIpScheme s;
    util::Rng rng(3);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    EXPECT_FALSE(s.decide(*game, ev, truth).skip_ips);
    EXPECT_FALSE(s.decide(*game, ev, truth).skip_ips);
    EXPECT_FALSE(s.decide(*game, ev, truth).skip_ips);
    s.observe(truth);
    EXPECT_TRUE(s.decide(*game, ev, truth).skip_ips);
}

/** An empty-profile model with @p game's ground-truth Touch
 *  selection. */
SnipModel
emptyTouchModel(const games::Game &game)
{
    MemoTable table(game.schema());
    table.setSelected(events::EventType::Touch,
                      game.necessaryInputIds(events::EventType::Touch));
    SnipModel model;
    model.game = game.name();
    model.table = table.freeze();
    return model;
}

TEST(Schemes, SnipHitsAfterObserve)
{
    auto game = games::makeGame("colorphun");
    SnipModel model = emptyTouchModel(*game);

    SnipScheme s(model);
    util::Rng rng(4);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision miss = s.decide(*game, ev, truth);
    EXPECT_FALSE(miss.shortcircuit);
    s.observe(truth);  // online fill
    Decision hit = s.decide(*game, ev, truth);
    ASSERT_TRUE(hit.shortcircuit);
    ASSERT_NE(hit.outputs, nullptr);
    EXPECT_EQ(*hit.outputs, truth.outputs);
    EXPECT_GT(hit.lookup_bytes, 0u);
}

TEST(Schemes, NoOverheadsVariant)
{
    auto game = games::makeGame("colorphun");
    SnipModel model = emptyTouchModel(*game);
    auto s = makeScheme(SchemeKind::NoOverheads, &model);
    EXPECT_EQ(s->kind(), SchemeKind::NoOverheads);
    util::Rng rng(5);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision d = s->decide(*game, ev, truth);
    EXPECT_FALSE(d.charge_lookup);
}

TEST(Schemes, FactoryRequiresModelForSnip)
{
    bool prev = util::setThrowOnError(true);
    EXPECT_THROW(makeScheme(SchemeKind::Snip, nullptr),
                 std::runtime_error);
    EXPECT_NO_THROW(makeScheme(SchemeKind::Baseline));
    util::setThrowOnError(prev);
}

TEST(Schemes, Names)
{
    EXPECT_STREQ(schemeName(SchemeKind::Baseline), "Baseline");
    EXPECT_STREQ(schemeName(SchemeKind::Snip), "SNIP");
    EXPECT_STREQ(schemeName(SchemeKind::NoOverheads), "No Overheads");
}

// On the overlay-fallback path (frozen miss, overlay consulted) the
// overlay's shared gather cost is already covered by the frozen
// charge; an overlay scan charged no more than that cost must
// contribute zero extra lookup bytes — never wrap the subtraction.
TEST(Schemes, OverlayFallbackLookupBytesNoUnderflow)
{
    auto game = games::makeGame("colorphun");
    SnipModel model = emptyTouchModel(*game);

    SnipScheme s(model);
    util::Rng rng(21);
    events::EventObject ev1 =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth1 = game->process(ev1);
    EXPECT_FALSE(s.decide(*game, ev1, truth1).lookup_hit);
    s.observe(truth1);  // online fill: overlay now non-empty
    ASSERT_GT(s.overlayEntries(), 0u);

    // A fresh event missing in both tables: the frozen (empty)
    // lookup charges the gather cost, the overlay scan hits an
    // empty bucket and may charge no more than that same cost.
    events::EventObject ev2 =
        game->makeEvent(events::EventType::Touch, 1.0, rng);
    games::HandlerExecution truth2 = game->process(ev2);
    LookupScratch scratch;
    FrozenLookup f = s.frozen().lookup(ev2, *game, scratch);
    ASSERT_FALSE(f.hit);
    Decision d = s.decide(*game, ev2, truth2);
    EXPECT_FALSE(d.lookup_hit);
    // No underflow: the total can only be the frozen charge plus a
    // small non-negative overlay surplus, not a wrapped uint64.
    EXPECT_GE(d.lookup_bytes, f.bytes_scanned);
    EXPECT_LT(d.lookup_bytes, f.bytes_scanned + (1u << 20));
    if (d.lookup_candidates == 0) {
        EXPECT_EQ(d.lookup_bytes, f.bytes_scanned);
    }
}

// --------------------------------------------------------- Simulation

TEST(Simulation, SessionStatsConsistent)
{
    auto game = games::makeGame("greenwall");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 20.0;
    SessionResult res = runSession(*game, baseline, cfg);
    EXPECT_GT(res.stats.events, 100u);
    EXPECT_EQ(res.stats.shortcircuits, 0u);
    EXPECT_EQ(res.stats.instr_skipped, 0u);
    EXPECT_GT(res.stats.instr_total, 0u);
    EXPECT_GT(res.report.total(), 0.0);
    EXPECT_NEAR(res.report.elapsed(), 20.0, 0.2);
    EXPECT_DOUBLE_EQ(res.stats.errorFieldRate(), 0.0);
}

TEST(Simulation, RecordingCapturesAllEvents)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 15.0;
    cfg.record_events = true;
    SessionResult res = runSession(*game, baseline, cfg);
    EXPECT_EQ(res.trace.events.size(), res.stats.events);
    EXPECT_EQ(res.trace.game, "colorphun");
}

TEST(Simulation, SameSeedSameEnergy)
{
    auto game = games::makeGame("candy_crush");
    BaselineScheme a, b;
    SimulationConfig cfg;
    cfg.duration_s = 10.0;
    cfg.seed = 777;
    double e1 = runSession(*game, a, cfg).report.total();
    double e2 = runSession(*game, b, cfg).report.total();
    EXPECT_DOUBLE_EQ(e1, e2);
}

/** Fold a double's bit pattern into a digest. */
uint64_t
mixBits(uint64_t h, double v)
{
    return util::mixCombine(h, std::bit_cast<uint64_t>(v));
}

/**
 * Digest of everything a session reports: every SessionStats field
 * and every EnergyReport component, doubles by their bit pattern.
 */
uint64_t
sessionDigest(const SessionResult &res)
{
    const SessionStats &s = res.stats;
    uint64_t h = 0x5e55d16e57ULL;
    for (uint64_t v :
         {s.events, s.shortcircuits, s.instr_total, s.instr_skipped,
          s.lookup_bytes, s.lookup_candidates,
          s.erroneous_shortcircuits, s.err_temp_only, s.err_history,
          s.err_extern, s.output_fields_total, s.output_fields_wrong,
          s.useless_events, s.useless_instr_executed})
        h = util::mixCombine(h, v);
    for (double v : {s.ip_work_total, s.ip_work_skipped,
                     s.lookup_energy_j})
        h = mixBits(h, v);
    for (const soc::ComponentEnergy &c : res.report.components()) {
        h = util::mixCombine(h, util::fnv1a(c.name));
        h = util::mixCombine(h, static_cast<uint64_t>(c.group));
        h = mixBits(h, c.dynamic_j);
        h = mixBits(h, c.static_j);
    }
    h = mixBits(h, res.report.elapsed());
    return mixBits(h, res.report.total());
}

/** A SNIP model of @p name built from a recorded Baseline session. */
SnipModel
goldenModel(const std::string &name)
{
    auto game = games::makeGame(name);
    BaselineScheme baseline;
    SimulationConfig pcfg;
    pcfg.duration_s = 30.0;
    pcfg.record_events = true;
    SessionResult prof = runSession(*game, baseline, pcfg);
    auto replica = games::makeGame(name);
    trace::Profile profile =
        trace::Replayer::replay(prof.trace, *replica);
    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    return buildSnipModel(profile, *game, scfg);
}

// Pins the whole session loop: any change to event generation, the
// decide/observe protocol, output application or SoC charging moves
// at least one of these digests. The constants were recorded with
// the sequential loop of the time the test was added; a deliberate
// behaviour change must re-record them and say why.
TEST(Simulation, SessionGoldenDigest)
{
    SimulationConfig ecfg;
    ecfg.duration_s = 20.0;
    ecfg.seed = 5;

    auto colorphun = games::makeGame("colorphun");
    BaselineScheme baseline;
    SessionResult base = runSession(*colorphun, baseline, ecfg);

    SnipModel cmodel = goldenModel("colorphun");
    ASSERT_NE(cmodel.table, nullptr);
    SnipRuntimeConfig rcfg;
    rcfg.audit_every = 8;
    rcfg.online_fill = true;
    SnipScheme snip(cmodel, rcfg);
    SessionResult snipped = runSession(*colorphun, snip, ecfg);
    EXPECT_GT(snipped.stats.shortcircuits, 0u);
    EXPECT_GT(snip.auditsRun(), 0u);
    EXPECT_GT(snip.overlayEntries(), 0u);

    SnipScheme free_lookups(cmodel, SnipRuntimeConfig{}, false);
    SessionResult noov = runSession(*colorphun, free_lookups, ecfg);

    auto ab = games::makeGame("ab_evolution");
    SnipModel amodel = goldenModel("ab_evolution");
    ASSERT_NE(amodel.table, nullptr);
    SnipScheme ab_snip(amodel);
    SessionResult ab_res = runSession(*ab, ab_snip, ecfg);
    EXPECT_GT(ab_res.stats.shortcircuits, 0u);

    EXPECT_EQ(sessionDigest(base), 0x51abb193bb39be90ULL);
    EXPECT_EQ(sessionDigest(snipped), 0xa630b818b0372b09ULL);
    EXPECT_EQ(sessionDigest(noov), 0xea6d011c6373f285ULL);
    EXPECT_EQ(sessionDigest(ab_res), 0xfeac54eaf54da367ULL);
}

TEST(Simulation, DifferentSeedsDiffer)
{
    auto game = games::makeGame("candy_crush");
    BaselineScheme a, b;
    SimulationConfig cfg;
    cfg.duration_s = 10.0;
    cfg.seed = 1;
    double e1 = runSession(*game, a, cfg).report.total();
    cfg.seed = 2;
    double e2 = runSession(*game, b, cfg).report.total();
    EXPECT_NE(e1, e2);
}

// The obs counters must be bookkeeping-identical to SessionStats
// and to the scheme's own audit/watchdog counters; the registry
// must stay empty when observability is off.
TEST(Simulation, ObsCountersMatchSessionStats)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig pcfg;
    pcfg.duration_s = 30.0;
    pcfg.record_events = true;
    SessionResult prof = runSession(*game, baseline, pcfg);
    auto replica = games::makeGame("colorphun");
    trace::Profile profile =
        trace::Replayer::replay(prof.trace, *replica);

    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    SnipModel model = buildSnipModel(profile, *game, scfg);
    ASSERT_NE(model.table, nullptr);

    obs::Registry reg;
    SnipRuntimeConfig rcfg;
    rcfg.obs = &reg;
    SnipScheme scheme(model, rcfg);
    SimulationConfig ecfg;
    ecfg.duration_s = 15.0;
    ecfg.seed = 5;
    ecfg.obs = &reg;
    SessionResult res = runSession(*game, scheme, ecfg);

    const SessionStats &st = res.stats;
    EXPECT_EQ(reg.counterValue("session.events"), st.events);
    EXPECT_EQ(reg.counterValue("session.useless_events"),
              st.useless_events);
    EXPECT_EQ(reg.counterValue("session.instr_total"),
              st.instr_total);
    EXPECT_EQ(reg.counterValue("session.instr_skipped"),
              st.instr_skipped);
    EXPECT_EQ(reg.counterValue("session.output_fields"),
              st.output_fields_total);
    EXPECT_EQ(reg.counterValue("session.output_fields_wrong"),
              st.output_fields_wrong);
    EXPECT_EQ(reg.counterValue("decide.shortcircuit"),
              st.shortcircuits);
    EXPECT_EQ(reg.counterValue("decide.err.shortcircuits"),
              st.erroneous_shortcircuits);
    EXPECT_EQ(reg.counterValue("decide.err.temp_only"),
              st.err_temp_only);
    EXPECT_EQ(reg.counterValue("decide.err.history"),
              st.err_history);
    EXPECT_EQ(reg.counterValue("decide.err.extern"), st.err_extern);
    EXPECT_EQ(reg.counterValue("lookup.bytes"), st.lookup_bytes);
    EXPECT_EQ(reg.counterValue("lookup.candidates"),
              st.lookup_candidates);
    EXPECT_EQ(reg.counterValue("decide.audits"), scheme.auditsRun());
    EXPECT_EQ(reg.counterValue("decide.audit_failures"),
              scheme.auditsFailed());
    EXPECT_EQ(reg.counterValue("decide.table_clears"),
              scheme.tableClears());

    // Every lookup either hits or misses; hits are what
    // short-circuits and audits are made of.
    uint64_t hits = reg.counterValue("lookup.hits");
    uint64_t misses = reg.counterValue("lookup.misses");
    EXPECT_EQ(hits + misses, reg.counterValue("lookup.lookups"));
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(hits, st.shortcircuits + scheme.auditsRun());
    EXPECT_DOUBLE_EQ(
        reg.gaugeValue("session.hit_rate"),
        static_cast<double>(hits) /
            static_cast<double>(hits + misses));
    EXPECT_DOUBLE_EQ(reg.gaugeValue("session.error_field_rate"),
                     st.errorFieldRate());
    EXPECT_DOUBLE_EQ(reg.gaugeValue("session.energy_j"),
                     res.report.total());

    // Observability off (the default): a second run must leave the
    // existing registry untouched and behave identically.
    uint64_t events_before = reg.counterValue("session.events");
    SnipScheme plain(model);
    SimulationConfig off_cfg = ecfg;
    off_cfg.obs = nullptr;
    runSession(*game, plain, off_cfg);
    EXPECT_EQ(reg.counterValue("session.events"), events_before);
}

TEST(Simulation, IdlePhoneCheaperThanAnyGame)
{
    soc::EnergyModel m = soc::EnergyModel::snapdragon821();
    util::Power idle = idlePhonePower(m);
    EXPECT_GT(idle, 0.3);
    EXPECT_LT(idle, 1.0);
}

TEST(Simulation, InvalidDurationFatal)
{
    bool prev = util::setThrowOnError(true);
    auto game = games::makeGame("colorphun");
    BaselineScheme s;
    SimulationConfig cfg;
    cfg.duration_s = 0.0;
    EXPECT_THROW(runSession(*game, s, cfg), std::runtime_error);
    util::setThrowOnError(prev);
}

// NaN compares false against everything, so a `<= 0` guard let it
// through and the frame loop never reached the end; +inf never ends
// either. All three die on the same fatal() path.
TEST(SimulationDeathTest, NonFiniteOrNonPositiveDurationFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (double d : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 0.0}) {
        auto game = games::makeGame("colorphun");
        BaselineScheme s;
        SimulationConfig cfg;
        cfg.duration_s = d;
        EXPECT_EXIT(runSession(*game, s, cfg),
                    ::testing::ExitedWithCode(1),
                    "not finite and positive")
            << d;
    }
}

// ------------------------------------------------ ContinuousLearner

TEST(ContinuousLearnerTest, ErrorDecaysAcrossEpochs)
{
    auto game = games::makeGame("ab_evolution");
    auto replica = games::makeGame("ab_evolution");
    LearningConfig cfg;
    cfg.epochs = 8;
    cfg.session_s = 8.0;
    cfg.initial_profile_records = 20;
    cfg.snip.min_records_per_type = 8;
    ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    ASSERT_EQ(epochs.size(), 8u);
    EXPECT_GT(epochs.front().error_field_rate, 0.02);
    EXPECT_LT(epochs.back().error_field_rate,
              epochs.front().error_field_rate / 2);
    // Profile grows monotonically.
    for (size_t i = 1; i < epochs.size(); ++i)
        EXPECT_GT(epochs[i].profile_records,
                  epochs[i - 1].profile_records);
}

TEST(ContinuousLearnerTest, TestedErrorWeightsByRecordCount)
{
    // Regression: the gate error used to average types with equal
    // weight, so one high-error type backed by a handful of records
    // could hold the confidence gate closed forever. The tested
    // error must weight each type by its profiled evidence.
    SnipModel model;
    TypeModel common;
    common.type = events::EventType::Touch;
    common.records = 1000;
    common.selection.selected_error = 0.001;
    TypeModel rare;
    rare.type = events::EventType::Gyro;
    rare.records = 5;
    rare.selection.selected_error = 0.5;
    model.types.push_back(std::move(common));
    model.types.push_back(std::move(rare));

    double err = testedModelError(model);
    // Weighted: (0.001*1000 + 0.5*5) / 1005 ~= 0.00348. The old
    // unweighted mean would be ~0.25 and fail a 0.005 gate.
    EXPECT_NEAR(err, 3.5 / 1005.0, 1e-12);
    EXPECT_LT(err, 0.005);

    // No evidence at all: maximally pessimistic.
    SnipModel empty;
    EXPECT_EQ(testedModelError(empty), 1.0);
}

TEST(ContinuousLearnerTest, EpochsReportOtaPayloadBytes)
{
    auto game = games::makeGame("colorphun");
    auto replica = games::makeGame("colorphun");
    LearningConfig cfg;
    cfg.epochs = 3;
    cfg.session_s = 6.0;
    cfg.initial_profile_records = 20;
    cfg.snip.min_records_per_type = 8;
    ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    ASSERT_EQ(epochs.size(), 3u);
    for (const auto &er : epochs) {
        // Every epoch deploys through the OTA transport; the
        // package always carries at least the envelope.
        EXPECT_GT(er.payload_bytes, 16u);
        if (er.table_bytes > 0) {
            EXPECT_TRUE(er.deployed);
        }
    }
}

TEST(ContinuousLearnerTest, OtaRejectionFallsBackToBaseline)
{
    auto game = games::makeGame("colorphun");
    auto replica = games::makeGame("colorphun");
    LearningConfig cfg;
    cfg.epochs = 3;
    cfg.session_s = 6.0;
    cfg.initial_profile_records = 20;
    cfg.snip.min_records_per_type = 8;
    // Lossy transport: every package arrives truncated, so every
    // push fails the integrity check and is rejected.
    cfg.ota_tamper = [](util::ByteBuffer &pkg) {
        util::ByteBuffer cut;
        cut.putBytes(pkg.data().data(), pkg.size() / 2);
        pkg = cut;
    };
    obs::Registry reg;
    cfg.obs = &reg;
    ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    ASSERT_EQ(epochs.size(), 3u);
    for (const auto &er : epochs) {
        // Regression: a rejected epoch used to report the dead
        // package's size. Nothing was deployed, so the epoch must
        // report no payload, no table, and a baseline session.
        EXPECT_EQ(er.payload_bytes, 0u);
        EXPECT_EQ(er.table_bytes, 0u);
        EXPECT_FALSE(er.deployed);
        EXPECT_FALSE(er.gate_withheld);
        EXPECT_EQ(er.rejected_packages,
                  static_cast<uint64_t>(er.epoch) + 1);
        EXPECT_DOUBLE_EQ(er.error_field_rate, 0.0);
        EXPECT_DOUBLE_EQ(er.coverage, 0.0);
        EXPECT_GT(er.energy_j, 0.0);
    }
    EXPECT_EQ(reg.counterValue("learn.epochs"), 3u);
    EXPECT_EQ(reg.counterValue("learn.deployed_epochs"), 0u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("learn.rejected_packages"), 3.0);
    ASSERT_NE(reg.findHistogram("learn.payload_bytes"), nullptr);
    // All three payload samples are 0 bytes -> underflow bucket.
    EXPECT_EQ(reg.findHistogram("learn.payload_bytes")
                  ->buckets()
                  .at(util::Log2Histogram::kUnderflowBucket),
              3u);
}

TEST(ContinuousLearnerTest, ConfidenceGateWithholdsEarlyEpochs)
{
    auto game = games::makeGame("colorphun");
    auto replica = games::makeGame("colorphun");
    LearningConfig cfg;
    cfg.epochs = 4;
    cfg.session_s = 6.0;
    cfg.initial_profile_records = 20;
    cfg.snip.min_records_per_type = 8;
    cfg.confidence_gate = true;
    // Gate on evidence volume only, so the trajectory is
    // deterministic: 20 seed records < 100, then each session's
    // replay grows the profile well past it.
    cfg.gate_min_records = 100;
    cfg.gate_threshold = 1.0;
    ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    ASSERT_EQ(epochs.size(), 4u);

    // Epoch 0: a model was built and shipped (there is a table and
    // an OTA payload), but the gate withheld it.
    EXPECT_GT(epochs[0].table_bytes, 0u);
    EXPECT_GT(epochs[0].payload_bytes, 0u);
    EXPECT_TRUE(epochs[0].gate_withheld);
    EXPECT_FALSE(epochs[0].deployed);
    EXPECT_DOUBLE_EQ(epochs[0].coverage, 0.0);

    // Once the profile clears the evidence bar the gate opens.
    bool any_deployed = false;
    for (const auto &er : epochs) {
        EXPECT_NE(er.deployed, er.gate_withheld);
        EXPECT_EQ(er.rejected_packages, 0u);
        any_deployed |= er.deployed;
        if (er.profile_records >= cfg.gate_min_records) {
            EXPECT_TRUE(er.deployed);
        }
    }
    EXPECT_TRUE(any_deployed);
}

TEST(ContinuousLearnerTest, MismatchedReplicaFatal)
{
    bool prev = util::setThrowOnError(true);
    auto game = games::makeGame("colorphun");
    auto replica = games::makeGame("race_kings");
    EXPECT_THROW(ContinuousLearner(*game, *replica, {}),
                 std::runtime_error);
    util::setThrowOnError(prev);
}

// --------------------------------------------- Out-of-core Shrink

/** A replayed profile of a short ab_evolution session. */
trace::Profile
recordedProfile(double secs, uint64_t seed = 99)
{
    auto game = games::makeGame("ab_evolution");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.record_events = true;
    cfg.seed = seed;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("ab_evolution");
    return trace::Replayer::replay(res.trace, *replica);
}

// The chunked pipeline (mmap'd SNCT training sections through
// ml::ChunkedDataset) must produce byte-for-byte the package the
// in-memory pipeline builds from the same records.
TEST(SnipPipelineTest, ChunkedBuildMatchesInMemory)
{
    trace::Profile profile = recordedProfile(45.0);
    auto game = games::makeGame("ab_evolution");
    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    SnipModel mem = buildSnipModel(profile, *game, scfg);

    std::vector<uint8_t> bytes;
    ASSERT_TRUE(
        trace::ColumnarLog::encodeTraining(profile, &bytes).ok());
    std::string path = ::testing::TempDir() + "/snip_oos.snct";
    ASSERT_TRUE(trace::ColumnarLog::save(bytes, path).ok());
    auto tlog = trace::ColumnarLog::open(path);
    ASSERT_TRUE(tlog.ok()) << tlog.status().message();

    ml::ChunkedConfig chunked;
    chunked.residency_budget_bytes = 1 << 18;  // aggressive drops
    auto oos = buildSnipModel(tlog.value(), *game, scfg, chunked);
    ASSERT_TRUE(oos.ok()) << oos.status().message();

    ASSERT_EQ(oos.value().types.size(), mem.types.size());
    for (size_t i = 0; i < mem.types.size(); ++i) {
        EXPECT_EQ(oos.value().types[i].type, mem.types[i].type);
        EXPECT_EQ(oos.value().types[i].selection.selected,
                  mem.types[i].selection.selected);
    }
    util::ByteBuffer pkg_mem, pkg_oos;
    packModel(mem, pkg_mem);
    packModel(oos.value(), pkg_oos);
    EXPECT_EQ(pkg_mem.data(), pkg_oos.data());
    std::remove(path.c_str());

    // And a trace with no training sections errors cleanly.
    auto none = buildSnipModel(
        std::shared_ptr<const trace::ColumnarLog>(), *game, scfg);
    EXPECT_FALSE(none.ok());
}

// The learner is a pure function of its config: two runs agree
// bitwise, epoch for epoch, with the per-epoch seed remixing on.
TEST(ContinuousLearnerTest, DeterministicAcrossRuns)
{
    auto runOnce = [] {
        auto game = games::makeGame("ab_evolution");
        auto replica = games::makeGame("ab_evolution");
        LearningConfig cfg;
        cfg.epochs = 4;
        cfg.session_s = 6.0;
        cfg.initial_profile_records = 30;
        cfg.snip.min_records_per_type = 8;
        ContinuousLearner learner(*game, *replica, cfg);
        return learner.run();
    };
    auto a = runOnce();
    auto b = runOnce();
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].error_field_rate, b[i].error_field_rate) << i;
        EXPECT_EQ(a[i].coverage, b[i].coverage) << i;
        EXPECT_EQ(a[i].payload_bytes, b[i].payload_bytes) << i;
        EXPECT_EQ(a[i].table_bytes, b[i].table_bytes) << i;
    }
}

}  // namespace
}  // namespace core
}  // namespace snip
