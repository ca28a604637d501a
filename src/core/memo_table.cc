#include "core/memo_table.h"

#include <algorithm>

#include "core/frozen_table.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace core {

MemoTable::MemoTable(const events::FieldSchema &schema)
    : schema_(schema)
{
}

void
MemoTable::setSelected(events::EventType type,
                       std::vector<events::FieldId> selected)
{
    TypeTable &tt = types_[static_cast<int>(type)];
    if (tt.entries)
        util::fatal("MemoTable::setSelected(%s) after inserts; clear() "
                    "first", events::eventTypeName(type));
    std::sort(selected.begin(), selected.end());
    tt.selected = std::move(selected);
    tt.selected_event.clear();
    tt.selected_bytes = 0;
    for (events::FieldId fid : tt.selected) {
        const auto &d = schema_.def(fid);
        tt.selected_bytes += d.size_bytes;
        if (d.side == events::FieldSide::Input &&
            d.in_cat == events::InputCategory::Event)
            tt.selected_event.push_back(fid);
    }
}

const std::vector<events::FieldId> &
MemoTable::selected(events::EventType type) const
{
    return types_[static_cast<int>(type)].selected;
}

uint64_t
MemoTable::selectedBytes(events::EventType type) const
{
    return types_[static_cast<int>(type)].selected_bytes;
}

uint64_t
MemoTable::eventSubkey(
    const TypeTable &tt,
    const std::vector<events::FieldValue> &fields) const
{
    uint64_t h = 0xe4e27000ULL;
    for (events::FieldId fid : tt.selected_event) {
        const events::FieldValue *fv = events::findField(fields, fid);
        // Mix an explicit presence bit instead of a sentinel value:
        // a missing field must never hash like any real value
        // (UINT64_MAX is legitimate field content).
        uint64_t present = fv ? 1 : 0;
        uint64_t v = fv ? fv->value : 0;
        h = util::mixCombine(
            h, util::mixCombine(fid, util::mixCombine(present, v)));
    }
    return h;
}

void
MemoTable::insert(const games::HandlerExecution &rec)
{
    TypeTable &tt = types_[static_cast<int>(rec.type)];
    if (tt.selected.empty())
        return;  // type not deployed

    // The two-pointer projection below requires inputs sorted by id;
    // records from non-canonical producers get a sorted local copy
    // (an unsorted record must not silently drop key fields).
    const std::vector<events::FieldValue> *inputs = &rec.inputs;
    std::vector<events::FieldValue> sorted_inputs;
    if (!std::is_sorted(rec.inputs.begin(), rec.inputs.end(),
                        [](const events::FieldValue &a,
                           const events::FieldValue &b) {
                            return a.id < b.id;
                        })) {
        sorted_inputs = rec.inputs;
        events::canonicalize(sorted_inputs);
        inputs = &sorted_inputs;
    }

    // Project inputs onto the selected set (both sorted by id),
    // keeping each key field's slot within the selected layout.
    std::vector<events::FieldValue> key;
    std::vector<uint32_t> slots;
    size_t si = 0;
    for (const auto &fv : *inputs) {
        while (si < tt.selected.size() && tt.selected[si] < fv.id)
            ++si;
        if (si < tt.selected.size() && tt.selected[si] == fv.id) {
            key.push_back(fv);
            slots.push_back(static_cast<uint32_t>(si));
        }
    }

    uint64_t subkey = eventSubkey(tt, *inputs);
    auto &bucket = tt.buckets[subkey];
    for (const auto &e : bucket) {
        if (e.key_fields == key)
            return;  // already memoized (append-only semantics)
    }
    MemoEntry entry;
    entry.key_fields = std::move(key);
    entry.key_slots = std::move(slots);
    entry.outputs = rec.outputs;
    uint64_t bytes = 0;
    for (const auto &fv : entry.key_fields)
        bytes += schema_.def(fv.id).size_bytes;
    for (const auto &fv : entry.outputs)
        bytes += schema_.def(fv.id).size_bytes;
    entry.entry_bytes = static_cast<uint32_t>(bytes);
    tt.bytes += bytes + kEntryHeaderBytes;
    ++tt.entries;
    bucket.push_back(std::move(entry));
}

std::shared_ptr<const FrozenTable>
MemoTable::freeze() const
{
    return FrozenTable::freeze(*this);
}

void
MemoTable::visitEntries(
    events::EventType type,
    const std::function<void(uint64_t, const MemoEntry &)> &fn) const
{
    const TypeTable &tt = types_[static_cast<int>(type)];
    std::vector<uint64_t> subkeys;
    subkeys.reserve(tt.buckets.size());
    for (const auto &kv : tt.buckets)
        subkeys.push_back(kv.first);
    std::sort(subkeys.begin(), subkeys.end());
    for (uint64_t sk : subkeys)
        for (const MemoEntry &e : tt.buckets.at(sk))
            fn(sk, e);
}

void
MemoTable::mergeFrom(const MemoTable &other)
{
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        events::EventType type = static_cast<events::EventType>(t);
        other.visitEntries(
            type, [&](uint64_t, const MemoEntry &e) {
                games::HandlerExecution rec;
                rec.type = type;
                rec.inputs = e.key_fields;  // already canonical order
                rec.outputs = e.outputs;
                insert(rec);
            });
    }
}

size_t
MemoTable::entryCount() const
{
    size_t n = 0;
    for (const auto &tt : types_)
        n += tt.entries;
    return n;
}

size_t
MemoTable::entryCount(events::EventType type) const
{
    return types_[static_cast<int>(type)].entries;
}

uint64_t
MemoTable::totalBytes() const
{
    uint64_t n = 0;
    for (const auto &tt : types_)
        n += tt.bytes;
    return n;
}

void
MemoTable::recordStats(obs::Registry &reg) const
{
    uint64_t selected_bytes = 0;
    uint64_t configured = 0;
    for (const auto &tt : types_) {
        if (tt.selected.empty())
            continue;
        ++configured;
        selected_bytes += tt.selected_bytes;
    }
    reg.gauge("table.entries")
        .set(static_cast<double>(entryCount()));
    reg.gauge("table.bytes").set(static_cast<double>(totalBytes()));
    reg.gauge("table.selected_bytes")
        .set(static_cast<double>(selected_bytes));
    reg.gauge("table.types_configured")
        .set(static_cast<double>(configured));
    reg.gauge("table.layout").set(0.0);
}

void
MemoTable::clear()
{
    for (auto &tt : types_) {
        tt.buckets.clear();
        tt.entries = 0;
        tt.bytes = 0;
    }
}

}  // namespace core
}  // namespace snip
