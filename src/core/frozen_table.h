/**
 * @file
 * The immutable, deploy-side form of the SNIP lookup table. A
 * FrozenTable is one contiguous little-endian arena per model that
 * ships only what deploy cannot derive: per event type its selected
 * fields and structure-of-arrays entry storage (key/output offsets,
 * key slots, key values, output ids and values, each in one flat
 * array) in canonical order, the entries of a bucket adjacent. Every
 * SnipModel carries its table in this form, whether Shrink froze it
 * (MemoTable::freeze) or a package was decoded, and the arena is the
 * one home of the model's selection. At freeze()/attach() the table
 * derives, outside the wire format, each selected field's
 * event/history flag (from the schema), each entry's bucket (the
 * subkey folded from its stored key, foldSubkey) and scan charge,
 * and from them a full-key index over each type (key_index.h) that
 * keeps each bucket's charge: a lookup is O(key shapes) full-key
 * probes, charged exactly the bytes and candidates the paper's
 * linear bucket scan walks. Zero allocations per lookup.
 *
 * The arena's in-memory layout *is* its on-wire layout (the "SNPF"
 * section of a v3 model package), so OTA deploy can construct a
 * FrozenTable as a bounds-checked zero-copy view over the package
 * bytes. Ownership contract: a view never outlives its backing
 * buffer — attach() takes a shared_ptr keep-alive, and
 * MemoTable::freeze() produces a self-owning arena. See DESIGN.md
 * "The frozen arena (SNPF) and zero-copy deploy".
 */

#ifndef SNIP_CORE_FROZEN_TABLE_H
#define SNIP_CORE_FROZEN_TABLE_H

#include <array>
#include <memory>
#include <vector>

#include "core/key_index.h"
#include "core/memo_table.h"
#include "games/game.h"
#include "util/status.h"

namespace snip {
namespace core {

/** Arena magic ("SNPF"), first word of the frozen layout. */
constexpr uint32_t kFrozenMagic = 0x534e5046;
/** Frozen arena format version. */
constexpr uint32_t kFrozenVersion = 3;

/** Result of one frozen-table lookup. */
struct FrozenLookup {
    bool hit = false;
    /** Candidate entries the modelled bucket scan compares. */
    uint32_t candidates = 0;
    /** Modelled bytes gathered + compared: the type's selected
     *  bytes, plus entry bytes and kEntryHeaderBytes per candidate. */
    uint64_t bytes_scanned = 0;
    /**
     * Ordinal of the matched entry across the whole table (types in
     * ascending order, entries in canonical order within a type).
     * Valid when hit: the entry's identity within the table.
     */
    uint32_t entry_ordinal = 0;
    /** Matched entry's memoized outputs (views into the arena). */
    uint32_t nout = 0;
    const events::FieldId *out_ids = nullptr;
    const uint64_t *out_values = nullptr;
};

/**
 * Immutable deployed lookup table over a frozen arena.
 *
 * Thread safety: every method is const and touches only immutable
 * state, so any number of threads may look up concurrently on a
 * shared FrozenTable (each with its own scratch); there is nothing
 * to race on by construction.
 */
class FrozenTable
{
  public:
    /**
     * Attach a validated view over arena bytes (the deploy path).
     * Every offset, count and field id is bounds-checked against
     * @p size and @p schema before the view is returned; a malformed
     * arena yields an error Status, never UB. @p owner keeps the
     * backing buffer alive for the view's lifetime (zero-copy). If
     * @p data is not 8-aligned the bytes are copied into an owned
     * aligned buffer instead (still no per-entry work).
     */
    static util::Result<std::shared_ptr<const FrozenTable>>
    attach(const uint8_t *data, size_t size,
           std::shared_ptr<const void> owner,
           const events::FieldSchema &schema);

    /**
     * Look up an event: the earliest entry of its subkey bucket whose
     * stored key slots all hold the gathered values. The charge is
     * the paper's linear scan: the type's selected bytes (even when
     * there is no bucket), then every candidate up to the match, or
     * the whole bucket on a miss.
     */
    FrozenLookup lookup(const events::EventObject &ev,
                        const games::Game &game,
                        LookupScratch &scratch) const;

    // The steps of lookup(), for callers that probe an online-fill
    // overlay with the same subkey and gathered inputs.

    /** Whether @p type has a selection (undeployed types never
     *  look up). */
    bool deployed(events::EventType type) const
    {
        return types_[static_cast<int>(type)].nselected != 0;
    }
    /** Gather @p ev's values of its type's selected fields, event
     *  side from @p ev, history side from @p game's live state, and
     *  return the event's subkey (the hash of its event side). */
    uint64_t gather(const events::EventObject &ev,
                    const games::Game &game,
                    LookupScratch &scratch) const;
    /** Probe @p subkey's bucket with inputs gathered for @p type,
     *  charged as the bucket scan (not counting the gather). */
    BucketMatch match(events::EventType type, uint64_t subkey,
                      const LookupScratch &in) const;
    /** Copy entry @p entry's memoized outputs into @p out. */
    void outputs(events::EventType type, uint32_t entry,
                 std::vector<events::FieldValue> &out) const;

    /** Whether an entry with exactly @p key (projected by a
     *  MemoTable with this table's selections) is memoized. */
    bool contains(const RecordKey &key) const;

    /**
     * Visit every entry of @p type in arena order, which is the
     * canonical order of the table it was frozen from (buckets by
     * ascending subkey, insertion order within a bucket), so
     * MemoTable::mergeFrom of it followed by freeze() reproduces the
     * arena byte for byte.
     */
    void visitEntries(events::EventType type,
                      util::FunctionRef<void(const EntryView &)> fn) const;

    /** The schema snapshot the table was built/deployed against. */
    const events::FieldSchema &schema() const { return schema_; }

    /** Entries across all types. */
    size_t entryCount() const { return total_entries_; }
    /** Entries of one type. */
    size_t entryCount(events::EventType type) const;
    /** Modeled payload bytes (same accounting as MemoTable). */
    uint64_t totalBytes() const { return total_bytes_; }
    /** Sum of selected-field sizes for a type (bytes). */
    uint64_t selectedBytes(events::EventType type) const;
    /** Widest selection and most outputs of any entry: what a
     *  caller's per-lookup buffers need to hold. */
    uint32_t maxSelected() const { return max_selected_; }
    uint32_t maxOutputs() const { return max_outputs_; }
    /** Selected fields of a type (empty when undeployed). */
    std::vector<events::FieldId>
    selectedVector(events::EventType type) const;
    /** Whether this view borrows its bytes (no owned copy). */
    bool zeroCopy() const { return owned_.empty(); }

    /** Raw arena bytes (the v3 "SNPF" wire section, verbatim). */
    const uint8_t *arenaData() const { return data_; }
    size_t arenaSize() const { return size_; }

    /**
     * Export table shape as `table.*` gauges, like
     * MemoTable::recordStats, plus `table.layout` = 1 (frozen).
     */
    void recordStats(obs::Registry &reg) const;

  private:
    friend class MemoTable;  // freeze() writes the arena

    FrozenTable() = default;
    // Held only through shared_ptr: data_ may point into owned_ and
    // each TypeView::is_event into is_event_, so a copy would dangle.
    FrozenTable(const FrozenTable &) = delete;
    FrozenTable &operator=(const FrozenTable &) = delete;

    /** Decoded view of one type's arena block. */
    struct TypeView {
        uint32_t nselected = 0;  // 0 = type undeployed
        uint32_t nentries = 0;
        /** Derived from the schema. */
        uint64_t selected_bytes = 0;
        /** First global entry ordinal of this type. */
        uint32_t entry_base = 0;
        const events::FieldId *selected = nullptr;
        /** Event/history flag per selected field, into is_event_. */
        const uint8_t *is_event = nullptr;
        const uint32_t *key_off = nullptr;  // [nentries + 1]
        const uint32_t *out_off = nullptr;  // [nentries + 1]
        const uint32_t *key_slots = nullptr;
        const uint64_t *key_values = nullptr;
        const events::FieldId *out_ids = nullptr;
        const uint64_t *out_values = nullptr;
    };

    /** Decode directory + validate everything, then derive each
     *  entry's bucket and charge and the full-key indexes; data_/size_
     *  set. */
    util::Status decode(const events::FieldSchema &schema);

    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    /** Keep-alive for a zero-copy view (null when self-owned). */
    std::shared_ptr<const void> owner_;
    /** Owned storage (MemoTable::freeze() or misaligned-attach
     *  fallback); u64-backed so the arena base is always 8-aligned. */
    std::vector<uint64_t> owned_;

    events::FieldSchema schema_;
    std::array<TypeView, events::kNumEventTypes> types_{};
    /** Per type, whether each selected field is event-side: derived
     *  from the schema at decode, not shipped. */
    std::array<std::vector<uint8_t>, events::kNumEventTypes> is_event_;
    /** Off-wire full-key index, buckets and scan charge per type; its
     *  entry ids are arena entry indexes. */
    std::array<KeyIndex, events::kNumEventTypes> index_;
    size_t total_entries_ = 0;
    uint64_t total_bytes_ = 0;
    uint32_t max_selected_ = 0;
    uint32_t max_outputs_ = 0;
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_FROZEN_TABLE_H
