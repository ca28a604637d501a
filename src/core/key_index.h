/**
 * @file
 * The one probe routine behind every device-side table lookup, frozen
 * and online-fill alike, and the one place its charge is kept.
 *
 * The paper's runtime (§V-B) hashes the event-object part of the
 * necessary inputs to pick a bucket, then compares every candidate
 * entry of that bucket against the gathered inputs, in bucket order,
 * and takes the first whose stored key fields all match. Fig. 11c
 * charges that linear scan to the SoC: every candidate it walks, and
 * its entry bytes plus a fixed header. The host does not have to run
 * the scan to charge for it. A KeyIndex answers the same question in
 * O(key shapes): it maps (subkey, shape, key values) to the earliest
 * entry of the subkey's bucket with that exact key, where a *shape* is the
 * sequence of selected-field slots an entry stores (an execution that
 * did not read a selected field does not store it). An event matches
 * an entry exactly when every slot of the entry's shape was gathered
 * with the stored value, so the earliest match of the bucket is the
 * minimum bucket position over the shapes whose slots are all
 * present. append() assigns each entry its bucket position and
 * cumulative bucket bytes, and keeps each bucket's {count, bytes} in
 * one open-addressing array probed by subkey, so match() returns the
 * scan's charge without walking the bucket: a hit reads its entry
 * record, a miss one prefetched bucket slot.
 */

#ifndef SNIP_CORE_KEY_INDEX_H
#define SNIP_CORE_KEY_INDEX_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace snip {
namespace core {

/**
 * Caller-owned reusable gather buffers: one slot per selected field
 * of the looked-up event's type (slot order == the sorted selected
 * set). Reusing the scratch across calls makes lookups
 * allocation-free once it has held the widest type.
 */
struct LookupScratch {
    /** Gathered value per selected-field slot. */
    std::vector<uint64_t> values;
    /** Whether the slot's field was present/readable. */
    std::vector<uint8_t> present;
};

/**
 * Outcome of probing one bucket, charged exactly as the linear scan:
 * a hit at bucket position p counts p + 1 candidates and the bytes of
 * entries 0..p; a miss counts the whole bucket.
 */
struct BucketMatch {
    static constexpr uint32_t kMiss = UINT32_MAX;
    /** Matched entry (index within its type), kMiss on a miss. */
    uint32_t entry = kMiss;
    uint32_t candidates = 0;
    uint64_t bytes = 0;

    bool hit() const { return entry != kMiss; }
};

/**
 * Open-addressing table of 32-bit ids under 32-bit hash tags: linear
 * probing at load <= 1/2. Each slot also carries a 32-bit hint the
 * caller chooses, so a probe can start loading the caller's data for
 * a candidate before its own records arrive. Callers confirm a tag
 * hit against their own keys, so a tag collision costs a compare,
 * never a wrong answer.
 */
class TagTable
{
  public:
    static constexpr uint32_t kNone = UINT32_MAX;

    /** The first id under @p tag for which @p eq(id, hint) holds,
     *  else kNone. */
    template <class Eq>
    uint32_t find(uint32_t tag, const Eq &eq) const
    {
        if (slots_.empty())
            return kNone;
        const size_t mask = slots_.size() - 1;
        for (size_t i = tag & mask;; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (s.id_plus1 == 0)
                return kNone;
            if (s.tag == tag && eq(s.id_plus1 - 1, s.hint))
                return s.id_plus1 - 1;
        }
    }

    /** Start loading the first slot find(@p tag) reads. */
    void prefetch(uint32_t tag) const
    {
        if (!slots_.empty())
            __builtin_prefetch(&slots_[tag & (slots_.size() - 1)]);
    }

    /** Add @p id under @p tag, doubling the table at load 1/2. */
    void insert(uint32_t tag, uint32_t id, uint32_t hint = 0);

    /** Size for @p n ids up front (no rehash while filling). */
    void reserve(uint32_t n);

    /** Drop every id; the capacity is kept. */
    void clear();

  private:
    struct Slot {
        uint32_t tag = 0;
        uint32_t id_plus1 = 0;  // 0 = empty
        uint32_t hint = 0;
    };
    std::vector<Slot> slots_;
    uint32_t used_ = 0;
};

/**
 * Full-key index over one event type's append-only entries, keyed by
 * (event subkey, shape, key values): a bucket is all entries under one
 * subkey. The index does not own the key values: every call takes the
 * type's flat key value column, which lives in the frozen arena or in
 * a MemoTable's own array.
 *
 * Thread safety: the const methods touch only immutable state.
 */
class KeyIndex
{
  public:
    /** Where one entry lives and what the scan charges up to it: one
     *  record, so a probe touches one cache line per candidate. */
    struct Entry {
        /** Modelled bytes of scanning its bucket up to and including
         *  it (entry bytes plus MemoTable::kEntryHeaderBytes each). */
        uint64_t cum_bytes = 0;
        /** Event subkey of its bucket. */
        uint64_t subkey = 0;
        /** Position in its bucket. */
        uint32_t pos = 0;
        /** Its key values start here in the key column; their count
         *  is its shape's width. */
        uint32_t key_begin = 0;
        /** Its outputs, in the table's output columns. */
        uint32_t out_begin = 0;
        uint32_t nout = 0;
        uint32_t shape = 0;
    };

    /** Sentinel: no entry. */
    static constexpr uint32_t kNone = UINT32_MAX;

    /**
     * Index the next entry (index size()) under @p subkey: its key is
     * @p nk (slot, value) pairs @p slots / @p values, it memoizes
     * @p nout outputs, and the scan charges @p bytes for it (payload
     * plus header). Its key values and outputs follow the earlier
     * entries' in the caller's columns; its bucket position and
     * cumulative bytes are assigned here. When an entry under
     * @p subkey already has that key, a @p keep_duplicate entry is
     * recorded but never matched (the earliest wins), and otherwise
     * nothing changes and the result is false. @p key_values must
     * hold every earlier entry's key.
     */
    bool append(const uint64_t *key_values, uint64_t subkey,
                const uint32_t *slots, const uint64_t *values,
                uint32_t nk, uint32_t nout, uint64_t bytes,
                bool keep_duplicate);

    /** The entry under @p subkey whose key is exactly @p slots /
     *  @p values (the dedup probe), else kNone. */
    uint32_t find(const uint64_t *key_values, uint64_t subkey,
                  const uint32_t *slots, const uint64_t *values,
                  uint32_t nk) const;

    /**
     * Probe @p subkey's bucket with the inputs gathered in @p in: the
     * earliest entry whose every key slot is present with the stored
     * value, charged as the linear scan (entries 0..pos of a hit's
     * bucket, or the whole bucket on a miss).
     */
    BucketMatch match(const uint64_t *key_values, uint64_t subkey,
                      const LookupScratch &in) const;

    const Entry &entry(uint32_t e) const { return entries_[e]; }

    /** Entry @p e's key slots (its shape), ascending. */
    std::span<const uint32_t> slots(uint32_t e) const
    {
        const uint32_t s = entries_[e].shape;
        return {shape_slots_.data() + shape_off_[s],
                shape_off_[s + 1] - shape_off_[s]};
    }

    /** Entries indexed. */
    uint32_t size() const
    {
        return static_cast<uint32_t>(entries_.size());
    }

    /** Forget every entry; capacity and shapes are kept, so
     *  refilling up to the old size allocates nothing. */
    void clear();

    /** Size for @p entries entries in @p buckets buckets up front. */
    void reserve(uint32_t entries, uint32_t buckets);

  private:
    /** One bucket's scan: its entries and their modelled bytes. */
    struct BucketSlot {
        uint64_t subkey = 0;
        uint64_t bytes = 0;
        uint32_t count = 0;  // 0 = empty slot
    };

    /** Shape id of a slot sequence, kNone when unseen. */
    uint32_t shapeOf(const uint32_t *slots, uint32_t nk) const;
    /** Hash tag of a full key. */
    static uint32_t tagOf(uint64_t subkey, uint32_t shape,
                          const uint64_t *values, uint32_t nk);
    /** The indexed entry with exactly this full key, else kNone. */
    uint32_t lookup(const uint64_t *key_values, uint64_t subkey,
                    uint32_t shape, const uint64_t *values, uint32_t nk,
                    uint32_t tag) const;
    /** The bucket slot holding @p subkey, else the empty slot where it
     *  goes; buckets_ must not be empty. */
    size_t bucketSlot(uint64_t subkey) const;
    /** Resize buckets_ to @p cap slots (a power of two). */
    void rehashBuckets(size_t cap);
    uint32_t shapeCount() const
    {
        return static_cast<uint32_t>(shape_off_.size() - 1);
    }

    /** Shape s's slots are shape_slots_[shape_off_[s] ..
     *  shape_off_[s + 1]). */
    std::vector<uint32_t> shape_off_ = {0};
    std::vector<uint32_t> shape_slots_;
    std::vector<Entry> entries_;
    /** Key values and outputs of the entries so far: where the next
     *  entry's start in the caller's columns. */
    uint32_t keys_ = 0;
    uint32_t outs_ = 0;
    /** Earliest entry per full key under the key's hash tag, hinted
     *  with the entry's key_begin. */
    TagTable table_;
    /** Per subkey its bucket's scan, linear probing at load <= 1/2. */
    std::vector<BucketSlot> buckets_;
    uint32_t nbuckets_ = 0;
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_KEY_INDEX_H
