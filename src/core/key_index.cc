#include "core/key_index.h"

#include <algorithm>
#include <bit>

#include "util/rng.h"

namespace snip {
namespace core {

namespace {

/** Hash of a full key: its subkey, its shape and its values in slot
 *  order. Host layout only; no result depends on it. */
uint64_t
keySeed(uint64_t subkey, uint32_t shape)
{
    return subkey ^ shape;
}

uint64_t
keyStep(uint64_t h, uint64_t v)
{
    return (std::rotl(h, 23) ^ v) * 0x9e3779b97f4a7c15ULL;
}

uint32_t
keyTag(uint64_t h)
{
    return static_cast<uint32_t>(util::mix64(h) >> 32);
}

}  // namespace

void
TagTable::insert(uint32_t tag, uint32_t id, uint32_t hint)
{
    if (2 * (static_cast<size_t>(used_) + 1) > slots_.size()) {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
        const size_t mask = slots_.size() - 1;
        for (const Slot &s : old) {
            if (s.id_plus1 == 0)
                continue;
            size_t i = s.tag & mask;
            while (slots_[i].id_plus1 != 0)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }
    const size_t mask = slots_.size() - 1;
    size_t i = tag & mask;
    while (slots_[i].id_plus1 != 0)
        i = (i + 1) & mask;
    slots_[i] = {tag, id + 1, hint};
    ++used_;
}

void
TagTable::reserve(uint32_t n)
{
    if (used_ != 0 || 2 * static_cast<size_t>(n) <= slots_.size())
        return;
    size_t cap = 16;
    while (cap < 2 * static_cast<size_t>(n))
        cap <<= 1;
    slots_.assign(cap, Slot{});
}

void
TagTable::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
}

uint32_t
KeyIndex::shapeOf(const uint32_t *slots, uint32_t nk) const
{
    for (uint32_t s = 0; s + 1 < shape_off_.size(); ++s) {
        uint32_t b = shape_off_[s];
        if (shape_off_[s + 1] - b == nk &&
            std::equal(slots, slots + nk, shape_slots_.begin() + b))
            return s;
    }
    return kNone;
}

uint32_t
KeyIndex::tagOf(uint64_t subkey, uint32_t shape, const uint64_t *values,
                uint32_t nk)
{
    uint64_t h = keySeed(subkey, shape);
    for (uint32_t k = 0; k < nk; ++k)
        h = keyStep(h, values[k]);
    return keyTag(h);
}

uint32_t
KeyIndex::lookup(const uint64_t *key_values, uint64_t subkey,
                 uint32_t shape, const uint64_t *values, uint32_t nk,
                 uint32_t tag) const
{
    return table_.find(tag, [&](uint32_t c, uint32_t key_begin) {
        const Entry &e = entries_[c];
        return e.subkey == subkey && e.shape == shape &&
               std::equal(values, values + nk, key_values + key_begin);
    });
}

size_t
KeyIndex::bucketSlot(uint64_t subkey) const
{
    const size_t mask = buckets_.size() - 1;
    size_t i = subkey & mask;
    while (buckets_[i].count != 0 && buckets_[i].subkey != subkey)
        i = (i + 1) & mask;
    return i;
}

void
KeyIndex::rehashBuckets(size_t cap)
{
    std::vector<BucketSlot> old(cap);
    old.swap(buckets_);
    for (const BucketSlot &b : old)
        if (b.count != 0)
            buckets_[bucketSlot(b.subkey)] = b;
}

bool
KeyIndex::append(const uint64_t *key_values, uint64_t subkey,
                 const uint32_t *slots, const uint64_t *values,
                 uint32_t nk, uint32_t nout, uint64_t bytes,
                 bool keep_duplicate)
{
    const uint32_t id = size();
    Entry e;
    e.subkey = subkey;
    e.shape = shapeOf(slots, nk);
    const bool known_shape = e.shape != kNone;
    if (!known_shape) {
        e.shape = shapeCount();
        shape_slots_.insert(shape_slots_.end(), slots, slots + nk);
        shape_off_.push_back(
            static_cast<uint32_t>(shape_slots_.size()));
    }
    const uint32_t tag = tagOf(subkey, e.shape, values, nk);
    const bool duplicate =
        known_shape &&
        lookup(key_values, subkey, e.shape, values, nk, tag) != kNone;
    if (duplicate && !keep_duplicate)
        return false;

    if (2 * (static_cast<size_t>(nbuckets_) + 1) > buckets_.size())
        rehashBuckets(buckets_.empty() ? 16 : 2 * buckets_.size());
    BucketSlot &b = buckets_[bucketSlot(subkey)];
    if (b.count == 0) {
        b.subkey = subkey;
        ++nbuckets_;
    }
    e.pos = b.count++;
    e.cum_bytes = b.bytes += bytes;
    e.key_begin = keys_;
    e.out_begin = outs_;
    e.nout = nout;
    keys_ += nk;
    outs_ += nout;
    entries_.push_back(e);
    if (!duplicate)
        table_.insert(tag, id, e.key_begin);
    return true;
}

uint32_t
KeyIndex::find(const uint64_t *key_values, uint64_t subkey,
               const uint32_t *slots, const uint64_t *values,
               uint32_t nk) const
{
    uint32_t shape = shapeOf(slots, nk);
    if (shape == kNone)
        return kNone;
    return lookup(key_values, subkey, shape, values, nk,
                  tagOf(subkey, shape, values, nk));
}

BucketMatch
KeyIndex::match(const uint64_t *key_values, uint64_t subkey,
                const LookupScratch &in) const
{
    // Only a miss reads the bucket (its whole scan is charged); start
    // loading its slot so a miss does not wait for it.
    if (!buckets_.empty())
        __builtin_prefetch(&buckets_[subkey & (buckets_.size() - 1)]);
    // Shapes go in batches: hash each, start loading its slot, then
    // probe, so the batch's cache misses overlap.
    constexpr uint32_t kBatch = 4;
    uint32_t best = kNone;
    for (uint32_t s0 = 0; s0 < shapeCount(); s0 += kBatch) {
        const uint32_t nb = std::min(kBatch, shapeCount() - s0);
        uint32_t tags[kBatch];
        bool present[kBatch];
        for (uint32_t i = 0; i < nb; ++i) {
            const uint32_t s = s0 + i;
            uint64_t h = keySeed(subkey, s);
            uint32_t k = shape_off_[s];
            for (; k < shape_off_[s + 1] && in.present[shape_slots_[k]];
                 ++k)
                h = keyStep(h, in.values[shape_slots_[k]]);
            // A stored slot is absent: no entry of the shape matches.
            present[i] = k == shape_off_[s + 1];
            tags[i] = keyTag(h);
            if (present[i])
                table_.prefetch(tags[i]);
        }
        for (uint32_t i = 0; i < nb; ++i) {
            if (!present[i])
                continue;
            const uint32_t s = s0 + i;
            const uint32_t *slots = shape_slots_.data() + shape_off_[s];
            const uint32_t nk = shape_off_[s + 1] - shape_off_[s];
            // The slot's hint is the candidate's key_begin, so its
            // key values load alongside its entry record.
            uint32_t c = table_.find(tags[i], [&](uint32_t c,
                                                  uint32_t key_begin) {
                if (entries_[c].subkey != subkey || entries_[c].shape != s)
                    return false;
                const uint64_t *stored = key_values + key_begin;
                for (uint32_t j = 0; j < nk; ++j)
                    if (stored[j] != in.values[slots[j]])
                        return false;
                return true;
            });
            if (c != kNone &&
                (best == kNone || entries_[c].pos < entries_[best].pos))
                best = c;
        }
        if (best != kNone && entries_[best].pos == 0)
            break;  // nothing can precede the bucket's first entry
    }
    if (best != kNone)
        return {best, entries_[best].pos + 1, entries_[best].cum_bytes};
    if (buckets_.empty())
        return {};
    const BucketSlot &b = buckets_[bucketSlot(subkey)];
    return {BucketMatch::kMiss, b.count, b.bytes};
}

void
KeyIndex::clear()
{
    entries_.clear();
    keys_ = 0;
    outs_ = 0;
    table_.clear();
    std::fill(buckets_.begin(), buckets_.end(), BucketSlot{});
    nbuckets_ = 0;
}

void
KeyIndex::reserve(uint32_t entries, uint32_t buckets)
{
    entries_.reserve(entries);
    table_.reserve(entries);
    size_t cap = 16;
    while (cap < 2 * static_cast<size_t>(buckets))
        cap <<= 1;
    if (nbuckets_ == 0 && cap > buckets_.size())
        buckets_.assign(cap, BucketSlot{});
}

}  // namespace core
}  // namespace snip
