#include "core/memo_table.h"

#include <algorithm>
#include <utility>

#include "core/frozen_table.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace snip {
namespace core {

MemoTable::MemoTable(const events::FieldSchema &schema)
    : schema_(schema)
{
}

MemoTable::MemoTable(const FrozenTable &frozen) : schema_(frozen.schema())
{
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        auto type = static_cast<events::EventType>(t);
        if (frozen.deployed(type))
            setSelected(type, frozen.selectedVector(type));
    }
}

void
MemoTable::setSelected(events::EventType type,
                       std::vector<events::FieldId> selected)
{
    TypeTable &tt = types_[static_cast<int>(type)];
    if (tt.index.size())
        util::fatal("MemoTable::setSelected(%s) after inserts; clear() "
                    "first", events::eventTypeName(type));
    // A fresh type: the old selection's key shapes must not survive.
    tt = TypeTable{};
    std::sort(selected.begin(), selected.end());
    tt.selected = std::move(selected);
    for (events::FieldId fid : tt.selected) {
        const auto &d = schema_.def(fid);
        tt.selected_bytes += d.size_bytes;
        tt.slot_bytes.push_back(d.size_bytes);
        tt.is_event.push_back(d.side == events::FieldSide::Input &&
                              d.in_cat == events::InputCategory::Event);
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

bool
MemoTable::project(const games::HandlerExecution &rec,
                   RecordKey &key) const
{
    const TypeTable &tt = types_[static_cast<int>(rec.type)];
    const uint32_t nsel = static_cast<uint32_t>(tt.selected.size());
    if (nsel == 0)
        return false;

    // The two-pointer projection needs inputs sorted by id; records
    // from non-canonical producers are sorted into the key's scratch
    // (an unsorted record must not silently drop key fields).
    const std::vector<events::FieldValue> *inputs = &rec.inputs;
    if (!std::is_sorted(rec.inputs.begin(), rec.inputs.end(),
                        [](const events::FieldValue &a,
                           const events::FieldValue &b) {
                            return a.id < b.id;
                        })) {
        key.sorted = rec.inputs;
        events::canonicalize(key.sorted);
        inputs = &key.sorted;
    }

    key.type = rec.type;
    key.slots.clear();
    key.values.clear();
    uint32_t si = 0;
    for (const auto &fv : *inputs) {
        while (si < nsel && tt.selected[si] < fv.id)
            ++si;
        if (si < nsel && tt.selected[si] == fv.id) {
            key.slots.push_back(si);
            key.values.push_back(fv.value);
        }
    }
    key.subkey = foldSubkey(tt.selected.data(), tt.is_event.data(), nsel,
                            key.slots.data(), key.values.data(),
                            key.size());
    return true;
}

uint64_t
foldSubkey(const events::FieldId *selected, const uint8_t *is_event,
           uint32_t nsel, const uint32_t *slots, const uint64_t *values,
           uint32_t nk)
{
    uint64_t subkey = kSubkeySeed;
    for (uint32_t i = 0, k = 0; i < nsel; ++i) {
        while (k < nk && slots[k] < i)
            ++k;
        if (!is_event[i])
            continue;
        bool present = k < nk && slots[k] == i;
        subkey = subkeyStep(subkey, selected[i], present,
                            present ? values[k] : 0);
    }
    return subkey;
}

bool
MemoTable::insert(const RecordKey &key,
                  const std::vector<events::FieldValue> &outputs)
{
    TypeTable &tt = types_[static_cast<int>(key.type)];
    uint64_t bytes = kEntryHeaderBytes;
    for (uint32_t slot : key.slots)
        bytes += tt.slot_bytes[slot];
    for (const auto &fv : outputs)
        bytes += schema_.def(fv.id).size_bytes;
    if (!tt.index.append(tt.key_values.data(), key.subkey,
                         key.slots.data(), key.values.data(), key.size(),
                         static_cast<uint32_t>(outputs.size()), bytes,
                         false))
        return false;  // already memoized (append-only semantics)

    tt.key_values.insert(tt.key_values.end(), key.values.begin(),
                         key.values.end());
    for (const auto &fv : outputs) {
        tt.out_ids.push_back(fv.id);
        tt.out_values.push_back(fv.value);
    }
    bytes_ += bytes;
    ++entries_;
    return true;
}

bool
MemoTable::insert(const games::HandlerExecution &rec)
{
    return project(rec, key_) && insert(key_, rec.outputs);
}

BucketMatch
MemoTable::match(events::EventType type, uint64_t subkey,
                 const LookupScratch &in) const
{
    const TypeTable &tt = types_[static_cast<int>(type)];
    return tt.index.match(tt.key_values.data(), subkey, in);
}

void
MemoTable::outputs(events::EventType type, uint32_t entry,
                   std::vector<events::FieldValue> &out) const
{
    const TypeTable &tt = types_[static_cast<int>(type)];
    const KeyIndex::Entry &e = tt.index.entry(entry);
    out.resize(e.nout);
    for (uint32_t i = 0; i < e.nout; ++i)
        out[i] = {tt.out_ids[e.out_begin + i],
                  tt.out_values[e.out_begin + i]};
}

void
MemoTable::visitEntries(events::EventType type,
                        util::FunctionRef<void(const EntryView &)> fn) const
{
    const TypeTable &tt = types_[static_cast<int>(type)];
    // A stable group-by over the append order: an entry's id orders
    // it within its bucket.
    std::vector<std::pair<uint64_t, uint32_t>> order(tt.index.size());
    for (uint32_t e = 0; e < tt.index.size(); ++e)
        order[e] = {tt.index.entry(e).subkey, e};
    std::sort(order.begin(), order.end());

    EntryView v;
    for (const auto &[subkey, id] : order) {
        const KeyIndex::Entry &e = tt.index.entry(id);
        v.subkey = subkey;
        v.slots = tt.index.slots(id);
        v.values = {tt.key_values.data() + e.key_begin, v.slots.size()};
        v.out_ids = {tt.out_ids.data() + e.out_begin, e.nout};
        v.out_values = {tt.out_values.data() + e.out_begin, e.nout};
        fn(v);
    }
}

void
MemoTable::mergeFrom(const FrozenTable &other)
{
    games::HandlerExecution rec;
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        rec.type = static_cast<events::EventType>(t);
        if (types_[t].selected.empty())
            continue;  // nothing of this type can be inserted
        const std::vector<events::FieldId> sel =
            other.selectedVector(rec.type);
        other.visitEntries(rec.type, [&](const EntryView &v) {
            rec.inputs.clear();
            for (size_t k = 0; k < v.slots.size(); ++k)
                rec.inputs.push_back({sel[v.slots[k]], v.values[k]});
            rec.outputs.clear();
            for (size_t k = 0; k < v.out_ids.size(); ++k)
                rec.outputs.push_back({v.out_ids[k], v.out_values[k]});
            insert(rec);
        });
    }
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
    reg.gauge("table.entries").set(static_cast<double>(entries_));
    reg.gauge("table.bytes").set(static_cast<double>(bytes_));
    reg.gauge("table.selected_bytes")
        .set(static_cast<double>(selected_bytes));
    reg.gauge("table.types_configured")
        .set(static_cast<double>(configured));
    reg.gauge("table.layout").set(0.0);
}

void
MemoTable::clear()
{
    for (TypeTable &tt : types_) {
        tt.key_values.clear();
        tt.out_ids.clear();
        tt.out_values.clear();
        tt.index.clear();
    }
    entries_ = 0;
    bytes_ = 0;
}

}  // namespace core
}  // namespace snip
