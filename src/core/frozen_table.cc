#include "core/frozen_table.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace snip {
namespace core {

namespace {

/** Fixed arena header: magic, version, total_size, ntypes. */
constexpr size_t kHeaderBytes = 16;
/** Per-type directory record: 3 u32 scalars + 7 u32 offsets (see
 *  freeze() for the field order). */
constexpr size_t kTypeRecBytes = 40;

using util::align8;
using util::readU32;
using util::spanFits;
using util::writeU32;
using util::writeU64;

}  // namespace

std::shared_ptr<const FrozenTable>
MemoTable::freeze() const
{
    // Pass 1: layout, from the column sizes alone. Every u64 array
    // lands on an 8-aligned offset (the arena base itself is always
    // 8-aligned in memory).
    struct TypeOffsets {
        int type;
        uint32_t selected, key_off, out_off, key_slots, key_values,
            out_ids, out_values;
    };
    std::vector<TypeOffsets> offsets;
    size_t ntypes = 0;
    for (const auto &tt : types_)
        ntypes += !tt.selected.empty();
    size_t off = kHeaderBytes + ntypes * kTypeRecBytes;
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        const TypeTable &tt = types_[t];
        if (tt.selected.empty())
            continue;
        TypeOffsets o;
        o.type = t;
        size_t nsel = tt.selected.size();
        size_t ne = tt.index.size();
        o.selected = static_cast<uint32_t>(off);
        off += nsel * 4;
        o.key_off = static_cast<uint32_t>(off);
        off += (ne + 1) * 4;
        o.out_off = static_cast<uint32_t>(off);
        off = align8(off + (ne + 1) * 4);
        o.key_values = static_cast<uint32_t>(off);
        off += tt.key_values.size() * 8;
        o.out_values = static_cast<uint32_t>(off);
        off += tt.out_values.size() * 8;
        o.key_slots = static_cast<uint32_t>(off);
        off += tt.key_values.size() * 4;
        o.out_ids = static_cast<uint32_t>(off);
        off = align8(off + tt.out_ids.size() * 4);
        offsets.push_back(o);
    }
    size_t total_size = off;

    // Pass 2: fill, a stable group-by copy of each type's columns in
    // canonical order. u64-backed storage keeps the base 8-aligned.
    auto ft = std::shared_ptr<FrozenTable>(new FrozenTable());
    ft->owned_.assign((total_size + 7) / 8, 0);
    uint8_t *base = reinterpret_cast<uint8_t *>(ft->owned_.data());
    writeU32(base + 0, kFrozenMagic);
    writeU32(base + 4, kFrozenVersion);
    writeU32(base + 8, static_cast<uint32_t>(total_size));
    writeU32(base + 12, static_cast<uint32_t>(ntypes));

    for (size_t i = 0; i < offsets.size(); ++i) {
        const TypeOffsets &o = offsets[i];
        const TypeTable &tt = types_[o.type];
        for (size_t k = 0; k < tt.selected.size(); ++k)
            writeU32(base + o.selected + k * 4, tt.selected[k]);
        // Entries in canonical order; each one's bucket is folded
        // back from its key at attach.
        uint32_t e = 0, nkeys = 0, nouts = 0;
        visitEntries(
            static_cast<events::EventType>(o.type), [&](const EntryView &v) {
                for (size_t k = 0; k < v.slots.size(); ++k, ++nkeys) {
                    writeU32(base + o.key_slots + nkeys * 4, v.slots[k]);
                    writeU64(base + o.key_values + nkeys * 8, v.values[k]);
                }
                for (size_t k = 0; k < v.out_ids.size(); ++k, ++nouts) {
                    writeU32(base + o.out_ids + nouts * 4, v.out_ids[k]);
                    writeU64(base + o.out_values + nouts * 8,
                             v.out_values[k]);
                }
                ++e;
                writeU32(base + o.key_off + e * 4, nkeys);
                writeU32(base + o.out_off + e * 4, nouts);
            });

        uint8_t *rec = base + kHeaderBytes + i * kTypeRecBytes;
        writeU32(rec + 0, static_cast<uint32_t>(o.type));
        writeU32(rec + 4, static_cast<uint32_t>(tt.selected.size()));
        writeU32(rec + 8, e);
        writeU32(rec + 12, o.selected);
        writeU32(rec + 16, o.key_off);
        writeU32(rec + 20, o.out_off);
        writeU32(rec + 24, o.key_slots);
        writeU32(rec + 28, o.key_values);
        writeU32(rec + 32, o.out_ids);
        writeU32(rec + 36, o.out_values);
    }

    ft->data_ = base;
    ft->size_ = total_size;
    ft->schema_ = schema_;
    util::Status st = ft->decode(schema_);
    if (!st.ok())
        util::panic("MemoTable::freeze produced an invalid arena: "
                    "%s", st.message().c_str());
    return ft;
}

util::Result<std::shared_ptr<const FrozenTable>>
FrozenTable::attach(const uint8_t *data, size_t size,
                    std::shared_ptr<const void> owner,
                    const events::FieldSchema &schema)
{
    auto ft = std::shared_ptr<FrozenTable>(new FrozenTable());
    if (reinterpret_cast<uintptr_t>(data) % 8 == 0) {
        ft->data_ = data;
        ft->size_ = size;
        ft->owner_ = std::move(owner);
    } else {
        // Misaligned backing buffer: one aligned copy, still no
        // per-entry work.
        ft->owned_.assign((size + 7) / 8, 0);
        std::memcpy(ft->owned_.data(), data, size);
        ft->data_ = reinterpret_cast<uint8_t *>(ft->owned_.data());
        ft->size_ = size;
    }
    ft->schema_ = schema;
    util::Status st = ft->decode(schema);
    if (!st.ok())
        return st;
    return util::Result<std::shared_ptr<const FrozenTable>>(
        std::shared_ptr<const FrozenTable>(std::move(ft)));
}

util::Status
FrozenTable::decode(const events::FieldSchema &schema)
{
    const uint8_t *base = data_;
    const size_t size = size_;
    if (size < kHeaderBytes)
        return util::Status::Error("frozen: truncated header");
    if (readU32(base) != kFrozenMagic)
        return util::Status::Errorf("frozen: bad magic 0x%08x",
                                    readU32(base));
    if (readU32(base + 4) != kFrozenVersion)
        return util::Status::Errorf("frozen: unsupported version %u",
                                    readU32(base + 4));
    if (readU32(base + 8) != size)
        return util::Status::Errorf(
            "frozen: arena size %u does not match section size %zu",
            readU32(base + 8), size);
    uint32_t ntypes = readU32(base + 12);
    if (ntypes > events::kNumEventTypes)
        return util::Status::Errorf("frozen: %u types out of range",
                                    ntypes);
    if (kHeaderBytes + static_cast<size_t>(ntypes) * kTypeRecBytes >
        size)
        return util::Status::Error("frozen: truncated directory");

    int prev_type = -1;
    std::vector<uint64_t> subkeys;
    for (uint32_t i = 0; i < ntypes; ++i) {
        const uint8_t *rec = base + kHeaderBytes + i * kTypeRecBytes;
        uint32_t type = readU32(rec + 0);
        if (type >= events::kNumEventTypes ||
            static_cast<int>(type) <= prev_type)
            return util::Status::Errorf(
                "frozen: bad or out-of-order type %u", type);
        prev_type = static_cast<int>(type);

        TypeView tv;
        tv.nselected = readU32(rec + 4);
        tv.nentries = readU32(rec + 8);
        uint32_t o_selected = readU32(rec + 12);
        uint32_t o_key_off = readU32(rec + 16);
        uint32_t o_out_off = readU32(rec + 20);
        uint32_t o_key_slots = readU32(rec + 24);
        uint32_t o_key_values = readU32(rec + 28);
        uint32_t o_out_ids = readU32(rec + 32);
        uint32_t o_out_values = readU32(rec + 36);

        if (tv.nselected == 0)
            return util::Status::Errorf(
                "frozen: type %u with empty selection", type);
        if (!spanFits(size, o_selected, tv.nselected, 4, 4) ||
            !spanFits(size, o_key_off, tv.nentries + 1ull, 4, 4) ||
            !spanFits(size, o_out_off, tv.nentries + 1ull, 4, 4))
            return util::Status::Errorf(
                "frozen: type %u arrays out of bounds", type);
        tv.selected = reinterpret_cast<const events::FieldId *>(
            base + o_selected);
        tv.key_off =
            reinterpret_cast<const uint32_t *>(base + o_key_off);
        tv.out_off =
            reinterpret_cast<const uint32_t *>(base + o_out_off);

        // Selected set: ascending input-side ids. Their event/history
        // flags come from the schema, as MemoTable::setSelected
        // derives them.
        std::vector<uint8_t> &is_event = is_event_[type];
        is_event.resize(tv.nselected);
        events::FieldId prev = events::kInvalidField;
        for (uint32_t k = 0; k < tv.nselected; ++k) {
            events::FieldId fid = tv.selected[k];
            if (fid >= schema.size())
                return util::Status::Errorf(
                    "frozen: selected id %u out of schema range",
                    fid);
            const auto &d = schema.def(fid);
            if (d.side != events::FieldSide::Input)
                return util::Status::Errorf(
                    "frozen: selected id %u not an input", fid);
            if (prev != events::kInvalidField && fid <= prev)
                return util::Status::Error(
                    "frozen: selected ids not strictly ascending");
            prev = fid;
            tv.selected_bytes += d.size_bytes;
            is_event[k] = d.in_cat == events::InputCategory::Event;
        }
        tv.is_event = is_event.data();

        // Prefix-offset arrays: start at 0, nondecreasing; their
        // totals size the key/output arrays.
        if (tv.key_off[0] != 0 || tv.out_off[0] != 0)
            return util::Status::Error(
                "frozen: entry offsets do not start at 0");
        for (uint32_t e = 0; e < tv.nentries; ++e) {
            if (tv.key_off[e + 1] < tv.key_off[e] ||
                tv.out_off[e + 1] < tv.out_off[e])
                return util::Status::Error(
                    "frozen: entry offsets not monotonic");
        }
        uint32_t nkeys = tv.key_off[tv.nentries];
        uint32_t nouts = tv.out_off[tv.nentries];
        if (!spanFits(size, o_key_slots, nkeys, 4, 4) ||
            !spanFits(size, o_key_values, nkeys, 8, 8) ||
            !spanFits(size, o_out_ids, nouts, 4, 4) ||
            !spanFits(size, o_out_values, nouts, 8, 8))
            return util::Status::Errorf(
                "frozen: type %u entry storage out of bounds", type);
        tv.key_slots =
            reinterpret_cast<const uint32_t *>(base + o_key_slots);
        tv.key_values =
            reinterpret_cast<const uint64_t *>(base + o_key_values);
        tv.out_ids = reinterpret_cast<const events::FieldId *>(
            base + o_out_ids);
        tv.out_values =
            reinterpret_cast<const uint64_t *>(base + o_out_values);

        for (uint32_t k = 0; k < nouts; ++k) {
            events::FieldId fid = tv.out_ids[k];
            if (fid >= schema.size() ||
                schema.def(fid).side != events::FieldSide::Output)
                return util::Status::Errorf(
                    "frozen: bad output field id %u", fid);
        }

        // Each entry's bucket is the subkey folded from its key, whose
        // slots must ascend within the selection; the entries must be
        // in canonical order, so a bucket's entries are adjacent.
        subkeys.resize(tv.nentries);
        uint32_t buckets = 0;
        for (uint32_t e = 0; e < tv.nentries; ++e) {
            const uint32_t *slots = tv.key_slots + tv.key_off[e];
            const uint32_t nk = tv.key_off[e + 1] - tv.key_off[e];
            for (uint32_t k = 0; k < nk; ++k)
                if (slots[k] >= tv.nselected ||
                    (k != 0 && slots[k] <= slots[k - 1]))
                    return util::Status::Errorf(
                        "frozen: type %u entry %u key slots not "
                        "ascending in its selection", type, e);
            subkeys[e] = foldSubkey(tv.selected, tv.is_event,
                                    tv.nselected, slots,
                                    tv.key_values + tv.key_off[e], nk);
            if (e != 0 && subkeys[e] < subkeys[e - 1])
                return util::Status::Errorf(
                    "frozen: type %u entries not in canonical order",
                    type);
            buckets += e == 0 || subkeys[e] != subkeys[e - 1];
        }

        // The off-wire full-key index, entry ids = arena indexes, each
        // entry charged as MemoTable::insert charges it (every id below
        // is checked against the schema above).
        max_selected_ = std::max(max_selected_, tv.nselected);
        KeyIndex &ix = index_[type];
        ix.reserve(tv.nentries, buckets);
        const std::vector<events::FieldDef> &defs = schema.defs();
        for (uint32_t e = 0; e < tv.nentries; ++e) {
            const uint32_t nout = tv.out_off[e + 1] - tv.out_off[e];
            uint64_t bytes = MemoTable::kEntryHeaderBytes;
            for (uint32_t k = tv.key_off[e]; k < tv.key_off[e + 1]; ++k)
                bytes += defs[tv.selected[tv.key_slots[k]]].size_bytes;
            for (uint32_t k = tv.out_off[e]; k < tv.out_off[e + 1]; ++k)
                bytes += defs[tv.out_ids[k]].size_bytes;
            ix.append(tv.key_values, subkeys[e],
                      tv.key_slots + tv.key_off[e],
                      tv.key_values + tv.key_off[e],
                      tv.key_off[e + 1] - tv.key_off[e], nout, bytes, true);
            max_outputs_ = std::max(max_outputs_, nout);
            total_bytes_ += bytes;
        }

        if (total_entries_ + tv.nentries > UINT32_MAX)
            return util::Status::Error("frozen: entry count overflow");
        total_entries_ += tv.nentries;
        types_[type] = tv;
    }
    return util::Status::Ok();
}

uint64_t
FrozenTable::gather(const events::EventObject &ev,
                    const games::Game &game,
                    LookupScratch &scratch) const
{
    const TypeView &tv = types_[static_cast<int>(ev.type)];
    size_t n = tv.nselected;
    scratch.values.resize(n);
    scratch.present.resize(n);
    uint64_t subkey = kSubkeySeed;
    for (size_t i = 0; i < n; ++i) {
        events::FieldId fid = tv.selected[i];
        if (tv.is_event[i]) {
            const events::FieldValue *fv =
                events::findField(ev.fields, fid);
            scratch.present[i] = fv != nullptr;
            scratch.values[i] = fv ? fv->value : 0;
            subkey = subkeyStep(subkey, fid, fv != nullptr,
                                scratch.values[i]);
        } else {
            uint64_t v = 0;
            scratch.present[i] = game.gatherInputValue(fid, v);
            scratch.values[i] = v;
        }
    }
    return subkey;
}

BucketMatch
FrozenTable::match(events::EventType type, uint64_t subkey,
                   const LookupScratch &in) const
{
    const int t = static_cast<int>(type);
    return index_[t].match(types_[t].key_values, subkey, in);
}

void
FrozenTable::outputs(events::EventType type, uint32_t entry,
                     std::vector<events::FieldValue> &out) const
{
    const int t = static_cast<int>(type);
    const TypeView &tv = types_[t];
    const KeyIndex::Entry &e = index_[t].entry(entry);
    out.resize(e.nout);
    for (uint32_t i = 0; i < e.nout; ++i)
        out[i] = {tv.out_ids[e.out_begin + i],
                  tv.out_values[e.out_begin + i]};
}

bool
FrozenTable::contains(const RecordKey &key) const
{
    const int t = static_cast<int>(key.type);
    return index_[t].find(types_[t].key_values, key.subkey,
                          key.slots.data(), key.values.data(),
                          key.size()) != KeyIndex::kNone;
}

void
FrozenTable::visitEntries(events::EventType type,
                          util::FunctionRef<void(const EntryView &)> fn)
    const
{
    const int t = static_cast<int>(type);
    const TypeView &tv = types_[t];
    EntryView v;
    for (uint32_t e = 0; e < tv.nentries; ++e) {
        const KeyIndex::Entry &ie = index_[t].entry(e);
        v.subkey = ie.subkey;
        v.slots = {tv.key_slots + tv.key_off[e],
                   tv.key_off[e + 1] - tv.key_off[e]};
        v.values = {tv.key_values + tv.key_off[e], v.slots.size()};
        v.out_ids = {tv.out_ids + ie.out_begin, ie.nout};
        v.out_values = {tv.out_values + ie.out_begin, ie.nout};
        fn(v);
    }
}

size_t
FrozenTable::entryCount(events::EventType type) const
{
    return types_[static_cast<int>(type)].nentries;
}

uint64_t
FrozenTable::selectedBytes(events::EventType type) const
{
    return types_[static_cast<int>(type)].selected_bytes;
}

std::vector<events::FieldId>
FrozenTable::selectedVector(events::EventType type) const
{
    const TypeView &tv = types_[static_cast<int>(type)];
    return std::vector<events::FieldId>(
        tv.selected, tv.selected + tv.nselected);
}

void
FrozenTable::recordStats(obs::Registry &reg) const
{
    uint64_t selected_bytes = 0;
    uint64_t configured = 0;
    for (const auto &tv : types_) {
        if (tv.nselected == 0)
            continue;
        ++configured;
        selected_bytes += tv.selected_bytes;
    }
    reg.gauge("table.entries")
        .set(static_cast<double>(entryCount()));
    reg.gauge("table.bytes").set(static_cast<double>(totalBytes()));
    reg.gauge("table.selected_bytes")
        .set(static_cast<double>(selected_bytes));
    reg.gauge("table.types_configured")
        .set(static_cast<double>(configured));
    reg.gauge("table.layout").set(1.0);
}

}  // namespace core
}  // namespace snip
