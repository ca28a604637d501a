/**
 * @file
 * The device-side online-fill overlay: entries a SnipScheme learns
 * from fully processed events between cloud re-learns. It has the
 * frozen table's selections and flat per-type entry columns, and is
 * probed through the same full-key index (key_index.h), so a lookup
 * charges exactly the linear bucket scan the paper models. Entries
 * are append-only until clear().
 */

#ifndef SNIP_CORE_OVERLAY_TABLE_H
#define SNIP_CORE_OVERLAY_TABLE_H

#include <array>
#include <vector>

#include "core/frozen_table.h"

namespace snip {
namespace core {

/** Append-only online-fill table over a frozen table's selections. */
class OverlayTable
{
  public:
    /** Take @p frozen's selections; it must outlive the overlay. */
    explicit OverlayTable(const FrozenTable &frozen);

    /** Probe @p subkey's bucket with inputs gathered for @p type (the
     *  frozen table's gather layout), charged as the bucket scan. */
    BucketMatch match(events::EventType type, uint64_t subkey,
                      const LookupScratch &in) const;
    /** Copy entry @p entry's memoized outputs into @p out. */
    void outputs(events::EventType type, uint32_t entry,
                 std::vector<events::FieldValue> &out) const;

    /**
     * Append an entry keyed @p key (projected by the frozen table)
     * memoizing @p outputs. Returns false, changing nothing, when an
     * entry with that exact key is already held.
     */
    bool insert(const RecordKey &key,
                const std::vector<events::FieldValue> &outputs);

    /** Entries across all types. */
    size_t entryCount() const { return entries_; }
    /** Modelled payload bytes (entries + per-entry header), the
     *  MemoTable accounting. */
    uint64_t totalBytes() const { return bytes_; }

    /** Drop every entry (the watchdog's "clear the table"); the
     *  selections and array capacity stay. */
    void clear();

    /** Export `table.*` gauges as MemoTable::recordStats does
     *  (`table.layout` = 0). */
    void recordStats(obs::Registry &reg) const;

  private:
    struct TypeOverlay {
        /** Size of each selected field, by slot. */
        std::vector<uint32_t> slot_bytes;
        /** Entry columns; each index entry says where its key and
         *  outputs start. */
        std::vector<uint64_t> key_values;
        std::vector<events::FieldId> out_ids;
        std::vector<uint64_t> out_values;
        KeyIndex index;
        /** Buckets by id, found through their subkey's tag. */
        struct BucketRec {
            uint64_t subkey = 0;
            Bucket scan;
        };
        std::vector<BucketRec> buckets;
        TagTable bucket_ids;
    };

    /** The id of @p subkey's bucket, TagTable::kNone if none. */
    uint32_t bucketId(const TypeOverlay &to, uint64_t subkey) const;

    const FrozenTable &frozen_;
    std::array<TypeOverlay, events::kNumEventTypes> types_;
    size_t entries_ = 0;
    uint64_t bytes_ = 0;
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_OVERLAY_TABLE_H
