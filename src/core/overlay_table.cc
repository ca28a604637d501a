#include "core/overlay_table.h"

#include "obs/metrics.h"

namespace snip {
namespace core {

namespace {

uint32_t
subkeyTag(uint64_t subkey)
{
    return static_cast<uint32_t>(subkey ^ (subkey >> 32));
}

}  // namespace

OverlayTable::OverlayTable(const FrozenTable &frozen) : frozen_(frozen)
{
    for (int t = 0; t < events::kNumEventTypes; ++t)
        for (events::FieldId fid :
             frozen.selectedVector(static_cast<events::EventType>(t)))
            types_[t].slot_bytes.push_back(
                frozen.schema().def(fid).size_bytes);
}

uint32_t
OverlayTable::bucketId(const TypeOverlay &to, uint64_t subkey) const
{
    return to.bucket_ids.find(subkeyTag(subkey),
                              [&](uint32_t b, uint32_t) {
                                  return to.buckets[b].subkey == subkey;
                              });
}

BucketMatch
OverlayTable::match(events::EventType type, uint64_t subkey,
                    const LookupScratch &in) const
{
    const TypeOverlay &to = types_[static_cast<int>(type)];
    // Only a miss needs the bucket (its whole scan is charged); start
    // loading its slot so a miss does not wait for it.
    to.bucket_ids.prefetch(subkeyTag(subkey));
    uint32_t hit = to.index.match(to.key_values.data(), subkey, in);
    if (hit != KeyIndex::kNone)
        return to.index.charge(hit, {});
    uint32_t id = bucketId(to, subkey);
    return to.index.charge(
        hit, id == TagTable::kNone ? Bucket{} : to.buckets[id].scan);
}

void
OverlayTable::outputs(events::EventType type, uint32_t entry,
                      std::vector<events::FieldValue> &out) const
{
    const TypeOverlay &to = types_[static_cast<int>(type)];
    const KeyIndex::Entry &e = to.index.entry(entry);
    out.resize(e.nout);
    for (uint32_t i = 0; i < e.nout; ++i)
        out[i] = {to.out_ids[e.out_begin + i],
                  to.out_values[e.out_begin + i]};
}

bool
OverlayTable::insert(const RecordKey &key,
                     const std::vector<events::FieldValue> &outputs)
{
    TypeOverlay &to = types_[static_cast<int>(key.type)];
    const uint32_t id = bucketId(to, key.subkey);
    const bool new_bucket = id == TagTable::kNone;
    uint64_t bytes = MemoTable::kEntryHeaderBytes;
    for (uint32_t slot : key.slots)
        bytes += to.slot_bytes[slot];
    for (const auto &fv : outputs)
        bytes += frozen_.schema().def(fv.id).size_bytes;

    const Bucket scan = new_bucket ? Bucket{} : to.buckets[id].scan;
    KeyIndex::Entry e;
    e.subkey = key.subkey;
    e.pos = scan.count;
    e.cum_bytes = scan.bytes + bytes;
    e.key_begin = static_cast<uint32_t>(to.key_values.size());
    e.out_begin = static_cast<uint32_t>(to.out_ids.size());
    e.nout = static_cast<uint32_t>(outputs.size());
    if (!to.index.append(to.key_values.data(), e, key.slots.data(),
                         key.values.data(), key.size(), false))
        return false;  // already memoized (append-only semantics)

    to.key_values.insert(to.key_values.end(), key.values.begin(),
                         key.values.end());
    for (const auto &fv : outputs) {
        to.out_ids.push_back(fv.id);
        to.out_values.push_back(fv.value);
    }
    if (new_bucket) {
        to.bucket_ids.insert(subkeyTag(key.subkey),
                             static_cast<uint32_t>(to.buckets.size()));
        to.buckets.push_back({key.subkey, {1, e.cum_bytes}});
    } else {
        to.buckets[id].scan = {e.pos + 1, e.cum_bytes};
    }
    bytes_ += bytes;
    ++entries_;
    return true;
}

void
OverlayTable::clear()
{
    for (TypeOverlay &to : types_) {
        to.key_values.clear();
        to.out_ids.clear();
        to.out_values.clear();
        to.index.clear();
        to.buckets.clear();
        to.bucket_ids.clear();
    }
    entries_ = 0;
    bytes_ = 0;
}

void
OverlayTable::recordStats(obs::Registry &reg) const
{
    uint64_t selected_bytes = 0;
    uint64_t configured = 0;
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        events::EventType type = static_cast<events::EventType>(t);
        if (!frozen_.deployed(type))
            continue;
        ++configured;
        selected_bytes += frozen_.selectedBytes(type);
    }
    reg.gauge("table.entries").set(static_cast<double>(entries_));
    reg.gauge("table.bytes").set(static_cast<double>(bytes_));
    reg.gauge("table.selected_bytes")
        .set(static_cast<double>(selected_bytes));
    reg.gauge("table.types_configured")
        .set(static_cast<double>(configured));
    reg.gauge("table.layout").set(0.0);
}

}  // namespace core
}  // namespace snip
