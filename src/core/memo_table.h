/**
 * @file
 * The one mutable store of the SNIP lookup table (paper §V-B): per
 * event type it keeps the PFI-selected necessary input fields and an
 * append-only set of entries mapping observed necessary-input values
 * to memoized outputs, bucketed by a hash of the *event-object*
 * portion of the necessary inputs (the event subkey). Shrink pre-fills
 * it from the profile, the federated merge unions deployed tables
 * into it, freeze() turns it into the deployed arena (frozen_table.h)
 * that every SnipModel carries, and a device's online fill appends to
 * one until the next re-learn replaces it. It never ends up in a
 * model.
 *
 * Entries live in flat per-type columns (key values, output ids and
 * values) behind the full-key index every device lookup uses
 * (key_index.h), so an insert is an exact-key probe plus an append,
 * and a probe charges exactly the paper's scan of a bucket's
 * candidates — the Fig. 11c overhead term.
 */

#ifndef SNIP_CORE_MEMO_TABLE_H
#define SNIP_CORE_MEMO_TABLE_H

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "core/key_index.h"
#include "events/event.h"
#include "events/field.h"
#include "games/handler.h"
#include "util/function_ref.h"
#include "util/rng.h"

namespace snip {

namespace obs {
class Registry;
}  // namespace obs

namespace core {

class FrozenTable;

/**
 * The event subkey is folded over a type's selected event-side fields
 * in ascending id order, from this seed. A field's presence is mixed
 * in as an explicit bit, never as a sentinel value: a missing field
 * must never hash like any real value (UINT64_MAX is legitimate field
 * content).
 */
constexpr uint64_t kSubkeySeed = 0xe4e27000ULL;

/** One step of the subkey fold: selected event field @p fid. */
inline uint64_t
subkeyStep(uint64_t h, events::FieldId fid, bool present, uint64_t v)
{
    return util::mixCombine(
        h, util::mixCombine(fid, util::mixCombine(present ? 1 : 0,
                                                  present ? v : 0)));
}

/**
 * The event subkey of a key projected onto a selection: the fold over
 * the @p nsel selected fields' event-side slots (@p is_event), a slot
 * present exactly when it is one of the key's @p nk strictly ascending
 * @p slots, with the matching value. MemoTable::project folds a
 * record's key through here, and FrozenTable derives each stored
 * entry's bucket with it.
 */
uint64_t foldSubkey(const events::FieldId *selected, const uint8_t *is_event,
                    uint32_t nsel, const uint32_t *slots,
                    const uint64_t *values, uint32_t nk);

/**
 * A handler execution's key projected onto its type's selected
 * fields: what an entry built from it stores. Caller-owned and reused,
 * so projecting allocates nothing once it has held the widest key.
 */
struct RecordKey {
    events::EventType type = events::EventType::Touch;
    /** Event-subkey bucket the entry belongs in. */
    uint64_t subkey = 0;
    /** Stored slots (ascending) and their values. */
    std::vector<uint32_t> slots;
    std::vector<uint64_t> values;
    /** Sorted copy of non-canonical record inputs. */
    std::vector<events::FieldValue> sorted;

    uint32_t size() const { return static_cast<uint32_t>(slots.size()); }
};

/** One entry as visitEntries() yields it: views into the columns,
 *  valid for the duration of the callback. */
struct EntryView {
    /** Event subkey of its bucket. */
    uint64_t subkey = 0;
    /** Stored key slots (ascending) and their values. */
    std::span<const uint32_t> slots;
    std::span<const uint64_t> values;
    /** Memoized output writes. */
    std::span<const events::FieldId> out_ids;
    std::span<const uint64_t> out_values;
};

/**
 * Per-game append-only lookup table. It is the build side of a model
 * (Shrink's prefill, the fleet aggregate) and a device's online-fill
 * overlay alike.
 *
 * Thread safety: const methods touch only immutable state.
 */
class MemoTable
{
  public:
    /**
     * Bind to a game's schema. The table keeps its own copy: models
     * built from a short-lived game (e.g. the federated builders)
     * must stay valid after that game is destroyed.
     */
    explicit MemoTable(const events::FieldSchema &schema);

    /** An empty table with @p frozen's schema and selections: a
     *  device's online-fill overlay. */
    explicit MemoTable(const FrozenTable &frozen);

    /**
     * Configure the necessary (selected) fields of one event type.
     * Must be called before inserting records of that type.
     */
    void setSelected(events::EventType type,
                     std::vector<events::FieldId> selected);

    /** Selected fields of a type (empty when unconfigured). */
    const std::vector<events::FieldId> &
    selected(events::EventType type) const;

    /** Sum of selected-field sizes for a type (bytes). */
    uint64_t selectedBytes(events::EventType type) const;

    /**
     * Project @p rec's inputs onto its type's selected fields, and
     * fold the key's event subkey. False when the type is not
     * configured.
     */
    bool project(const games::HandlerExecution &rec,
                 RecordKey &key) const;

    /**
     * Append an entry keyed @p key (projected by this table, or by
     * one with the same selections) memoizing @p outputs. Returns
     * false, changing nothing, when an entry with that exact key is
     * already held (the paper's table is append-only between
     * re-learns, so the first outputs win).
     */
    bool insert(const RecordKey &key,
                const std::vector<events::FieldValue> &outputs);

    /** Project @p rec, then insert it; false when its type is not
     *  configured or its key is already held. */
    bool insert(const games::HandlerExecution &rec);

    /** Probe @p subkey's bucket with inputs gathered for @p type
     *  (FrozenTable::gather), charged as the bucket scan. */
    BucketMatch match(events::EventType type, uint64_t subkey,
                      const LookupScratch &in) const;

    /** Copy entry @p entry's memoized outputs into @p out. */
    void outputs(events::EventType type, uint32_t entry,
                 std::vector<events::FieldValue> &out) const;

    /**
     * Freeze this table into its immutable deploy-side form (a
     * self-owning contiguous arena; see frozen_table.h, where it is
     * defined next to the arena layout). Pure and deterministic: the
     * arena bytes are a function of the canonical entry order alone,
     * so freezing a table merged from a frozen one reproduces its
     * bytes. The table is unchanged.
     */
    std::shared_ptr<const FrozenTable> freeze() const;

    /** The schema copy this table is bound to. */
    const events::FieldSchema &schema() const { return schema_; }

    /**
     * Visit every entry of @p type in canonical order: buckets by
     * ascending event-subkey, entries in insertion order within a
     * bucket. The order is a function of the entry set and its
     * insertion order alone, which is what makes freeze() and
     * re-serialization byte-identical (model_codec.h).
     */
    void visitEntries(events::EventType type,
                      util::FunctionRef<void(const EntryView &)> fn) const;

    /**
     * Union a deployed table's entries into this one (the server-side
     * federated merge), in @p other's arena order, which is its
     * canonical order. Entries are re-projected onto *this* table's
     * selected sets; duplicate keys keep the first-seen outputs, as
     * insert() does.
     */
    void mergeFrom(const FrozenTable &other);

    /**
     * Export table shape as `table.*` gauges (entries, payload
     * bytes, selected bytes, configured types, `table.layout` = 0).
     * Read-only; see DESIGN.md for the metric namespace.
     */
    void recordStats(obs::Registry &reg) const;

    /** Number of entries across all types. */
    size_t entryCount() const { return entries_; }
    /** Entries of one type. */
    size_t entryCount(events::EventType type) const
    {
        return types_[static_cast<int>(type)].index.size();
    }
    /** Total table payload bytes (entries + per-entry header). */
    uint64_t totalBytes() const { return bytes_; }

    /** Per-entry header/index overhead modeled (bytes). */
    static constexpr uint32_t kEntryHeaderBytes = 256;

    /** Drop all entries (the watchdog's "clear the table"); the
     *  selections and array capacity stay. */
    void clear();

  private:
    struct TypeTable {
        std::vector<events::FieldId> selected;  // sorted
        /** Per selected slot: an In.Event field, and its size. */
        std::vector<uint8_t> is_event;
        std::vector<uint32_t> slot_bytes;
        uint64_t selected_bytes = 0;
        /** Entry columns; each index entry says where its key and
         *  outputs start. */
        std::vector<uint64_t> key_values;
        std::vector<events::FieldId> out_ids;
        std::vector<uint64_t> out_values;
        KeyIndex index;
    };

    events::FieldSchema schema_;
    std::array<TypeTable, events::kNumEventTypes> types_;
    size_t entries_ = 0;
    uint64_t bytes_ = 0;
    /** insert(rec)'s projection scratch. */
    RecordKey key_;
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_MEMO_TABLE_H
