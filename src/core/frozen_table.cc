#include "core/frozen_table.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace core {

namespace {

/** Fixed arena header: magic, version, total_size, ntypes,
 *  total_entries, total_bytes. */
constexpr size_t kHeaderBytes = 32;
/** Per-type directory record: 4 u32 + 2 u64 scalars + 10 u32
 *  offsets (see writeArena for the field order). */
constexpr size_t kTypeRecBytes = 72;
/** Index slot: u64 subkey + u32 begin + u32 count. */
constexpr size_t kSlotBytes = 16;

uint32_t
readU32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

uint64_t
readU64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

void
writeU32(uint8_t *p, uint32_t v)
{
    std::memcpy(p, &v, 4);
}

void
writeU64(uint8_t *p, uint64_t v)
{
    std::memcpy(p, &v, 8);
}

size_t
align8(size_t off)
{
    return (off + 7) & ~size_t{7};
}

}  // namespace

std::shared_ptr<const FrozenTable>
MemoTable::freeze() const
{
    // Pass 1: layout, from the column sizes alone. Every u64 array
    // lands on an 8-aligned offset (the arena base itself is always
    // 8-aligned in memory).
    struct TypeOffsets {
        int type;
        uint32_t capacity, selected, flags, index, key_off, out_off,
            key_slots, key_values, out_ids, out_values, entry_bytes;
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
        // Load factor <= 0.5: capacity = smallest power of two >=
        // max(4, 2 x buckets). Deterministic, so the arena is a pure
        // function of the canonical entry order.
        o.capacity = 4;
        while (o.capacity < 2 * tt.index.bucketCount())
            o.capacity <<= 1;
        size_t nsel = tt.selected.size();
        size_t ne = tt.index.size();
        o.selected = static_cast<uint32_t>(off);
        off += nsel * 4;
        o.flags = static_cast<uint32_t>(off);
        off = align8(off + nsel);
        o.index = static_cast<uint32_t>(off);
        off += static_cast<size_t>(o.capacity) * kSlotBytes;
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
        off += tt.out_ids.size() * 4;
        o.entry_bytes = static_cast<uint32_t>(off);
        off = align8(off + ne * 4);
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
    writeU64(base + 16, entryCount());
    writeU64(base + 24, totalBytes());

    for (size_t i = 0; i < offsets.size(); ++i) {
        const TypeOffsets &o = offsets[i];
        const TypeTable &tt = types_[o.type];
        for (size_t k = 0; k < tt.selected.size(); ++k) {
            writeU32(base + o.selected + k * 4, tt.selected[k]);
            base[o.flags + k] = tt.is_event[k];
        }
        // Entries in canonical order; buckets are runs of equal
        // subkeys, placed in ascending-subkey order with linear
        // probing: a deterministic function of the bucket set.
        const uint32_t mask = o.capacity - 1;
        uint8_t *slot = nullptr;
        uint32_t e = 0, nkeys = 0, nouts = 0;
        uint64_t type_bytes = 0;
        visitEntries(
            static_cast<events::EventType>(o.type), [&](const EntryView &v) {
                if (e == 0 || readU64(slot) != v.subkey) {
                    uint32_t s = static_cast<uint32_t>(v.subkey) & mask;
                    while (readU32(base + o.index + s * kSlotBytes + 12))
                        s = (s + 1) & mask;
                    slot = base + o.index + s * kSlotBytes;
                    writeU64(slot, v.subkey);
                    writeU32(slot + 8, e);
                }
                writeU32(slot + 12, readU32(slot + 12) + 1);
                for (size_t k = 0; k < v.slots.size(); ++k, ++nkeys) {
                    writeU32(base + o.key_slots + nkeys * 4, v.slots[k]);
                    writeU64(base + o.key_values + nkeys * 8, v.values[k]);
                }
                for (size_t k = 0; k < v.out_ids.size(); ++k, ++nouts) {
                    writeU32(base + o.out_ids + nouts * 4, v.out_ids[k]);
                    writeU64(base + o.out_values + nouts * 8,
                             v.out_values[k]);
                }
                writeU32(base + o.entry_bytes + e * 4, v.bytes);
                type_bytes += v.bytes + kEntryHeaderBytes;
                ++e;
                writeU32(base + o.key_off + e * 4, nkeys);
                writeU32(base + o.out_off + e * 4, nouts);
            });

        uint8_t *rec = base + kHeaderBytes + i * kTypeRecBytes;
        writeU32(rec + 0, static_cast<uint32_t>(o.type));
        writeU32(rec + 4, static_cast<uint32_t>(tt.selected.size()));
        writeU32(rec + 8, o.capacity);
        writeU32(rec + 12, e);
        writeU64(rec + 16, tt.selected_bytes);
        writeU64(rec + 24, type_bytes);
        writeU32(rec + 32, o.selected);
        writeU32(rec + 36, o.flags);
        writeU32(rec + 40, o.index);
        writeU32(rec + 44, o.key_off);
        writeU32(rec + 48, o.out_off);
        writeU32(rec + 52, o.key_slots);
        writeU32(rec + 56, o.key_values);
        writeU32(rec + 60, o.out_ids);
        writeU32(rec + 64, o.out_values);
        writeU32(rec + 68, o.entry_bytes);
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
    uint64_t total_entries = readU64(base + 16);
    uint64_t total_bytes = readU64(base + 24);

    // A span check: count elements of elem bytes at off, all inside
    // the arena and aligned for the typed view over them (the view
    // reinterprets the bytes directly, so misalignment would be UB).
    auto span = [&](uint64_t off, uint64_t count, uint64_t elem,
                    uint64_t align) {
        return off <= size && count <= (size - off) / elem &&
               off % align == 0;
    };

    uint64_t sum_entries = 0, sum_bytes = 0;
    int prev_type = -1;
    uint32_t entry_base = 0;
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
        tv.capacity = readU32(rec + 8);
        tv.nentries = readU32(rec + 12);
        tv.selected_bytes = readU64(rec + 16);
        tv.type_bytes = readU64(rec + 24);
        tv.entry_base = entry_base;
        uint32_t o_selected = readU32(rec + 32);
        uint32_t o_flags = readU32(rec + 36);
        uint32_t o_index = readU32(rec + 40);
        uint32_t o_key_off = readU32(rec + 44);
        uint32_t o_out_off = readU32(rec + 48);
        uint32_t o_key_slots = readU32(rec + 52);
        uint32_t o_key_values = readU32(rec + 56);
        uint32_t o_out_ids = readU32(rec + 60);
        uint32_t o_out_values = readU32(rec + 64);
        uint32_t o_entry_bytes = readU32(rec + 68);

        if (tv.nselected == 0)
            return util::Status::Errorf(
                "frozen: type %u with empty selection", type);
        if (tv.capacity == 0 ||
            (tv.capacity & (tv.capacity - 1)) != 0)
            return util::Status::Errorf(
                "frozen: type %u index capacity %u not a power of "
                "two", type, tv.capacity);
        if (!span(o_selected, tv.nselected, 4, 4) ||
            !span(o_flags, tv.nselected, 1, 1) ||
            !span(o_index, tv.capacity, kSlotBytes, 8) ||
            !span(o_key_off, tv.nentries + 1ull, 4, 4) ||
            !span(o_out_off, tv.nentries + 1ull, 4, 4) ||
            !span(o_entry_bytes, tv.nentries, 4, 4))
            return util::Status::Errorf(
                "frozen: type %u arrays out of bounds", type);
        tv.selected = reinterpret_cast<const events::FieldId *>(
            base + o_selected);
        tv.is_event = base + o_flags;
        const uint8_t *index = base + o_index;
        tv.key_off =
            reinterpret_cast<const uint32_t *>(base + o_key_off);
        tv.out_off =
            reinterpret_cast<const uint32_t *>(base + o_out_off);
        tv.entry_bytes = reinterpret_cast<const uint32_t *>(
            base + o_entry_bytes);

        // Selected set: ascending input-side ids whose sizes sum to
        // selected_bytes, flags matching the schema's categories.
        events::FieldId prev = events::kInvalidField;
        uint64_t sel_bytes = 0;
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
            sel_bytes += d.size_bytes;
            bool is_event =
                d.in_cat == events::InputCategory::Event;
            if ((tv.is_event[k] != 0) != is_event)
                return util::Status::Errorf(
                    "frozen: selected id %u category flag mismatch",
                    fid);
        }
        if (sel_bytes != tv.selected_bytes)
            return util::Status::Errorf(
                "frozen: type %u selected_bytes mismatch", type);

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
        if (!span(o_key_slots, nkeys, 4, 4) ||
            !span(o_key_values, nkeys, 8, 8) ||
            !span(o_out_ids, nouts, 4, 4) ||
            !span(o_out_values, nouts, 8, 8))
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

        for (uint32_t k = 0; k < nkeys; ++k)
            if (tv.key_slots[k] >= tv.nselected)
                return util::Status::Error(
                    "frozen: key slot out of selected range");
        for (uint32_t k = 0; k < nouts; ++k) {
            events::FieldId fid = tv.out_ids[k];
            if (fid >= schema.size() ||
                schema.def(fid).side != events::FieldSide::Output)
                return util::Status::Errorf(
                    "frozen: bad output field id %u", fid);
        }

        // Index slots: occupied slots (count > 0) hold distinct
        // subkeys and point at entry runs that tile [0, nentries)
        // exactly, so every entry is in exactly one bucket.
        struct Run {
            uint32_t begin, count;
            uint64_t subkey;
        };
        std::vector<Run> runs;
        for (uint32_t s = 0; s < tv.capacity; ++s) {
            const uint8_t *slot = index + s * kSlotBytes;
            uint32_t count = readU32(slot + 12);
            if (count != 0)
                runs.push_back({readU32(slot + 8), count, readU64(slot)});
        }
        tv.buckets = static_cast<uint32_t>(runs.size());
        if (2ull * tv.buckets > tv.capacity)
            return util::Status::Errorf(
                "frozen: type %u index overloaded", type);
        std::sort(runs.begin(), runs.end(),
                  [](const Run &a, const Run &b) {
                      return a.subkey < b.subkey;
                  });
        for (size_t r = 1; r < runs.size(); ++r)
            if (runs[r].subkey == runs[r - 1].subkey)
                return util::Status::Errorf(
                    "frozen: type %u index repeats a subkey", type);
        std::sort(runs.begin(), runs.end(),
                  [](const Run &a, const Run &b) {
                      return a.begin < b.begin;
                  });
        uint32_t next = 0;
        for (const Run &r : runs) {
            if (r.begin != next || r.count > tv.nentries - next)
                return util::Status::Errorf(
                    "frozen: type %u index runs do not tile its "
                    "entries", type);
            next += r.count;
        }
        if (next != tv.nentries)
            return util::Status::Errorf(
                "frozen: type %u index covers %u of %u entries", type,
                next, tv.nentries);

        uint64_t modeled = 0;
        for (uint32_t e = 0; e < tv.nentries; ++e)
            modeled +=
                tv.entry_bytes[e] + MemoTable::kEntryHeaderBytes;
        if (modeled != tv.type_bytes)
            return util::Status::Errorf(
                "frozen: type %u byte accounting mismatch", type);

        max_selected_ = std::max(max_selected_, tv.nselected);
        for (uint32_t e = 0; e < tv.nentries; ++e)
            max_outputs_ = std::max(max_outputs_,
                                    tv.out_off[e + 1] - tv.out_off[e]);

        // The off-wire full-key index, entry ids = arena indexes (the
        // runs tile the entries in order).
        KeyIndex &ix = index_[type];
        ix.reserve(tv.nentries, tv.buckets);
        for (const Run &r : runs)
            for (uint32_t e = r.begin; e < r.begin + r.count; ++e)
                ix.append(tv.key_values, r.subkey,
                          tv.key_slots + tv.key_off[e],
                          tv.key_values + tv.key_off[e],
                          tv.key_off[e + 1] - tv.key_off[e],
                          tv.out_off[e + 1] - tv.out_off[e],
                          tv.entry_bytes[e] + MemoTable::kEntryHeaderBytes,
                          true);

        sum_entries += tv.nentries;
        sum_bytes += tv.type_bytes;
        if (sum_entries > UINT32_MAX)
            return util::Status::Error("frozen: entry count overflow");
        entry_base += tv.nentries;
        types_[type] = tv;
    }
    if (sum_entries != total_entries || sum_bytes != total_bytes)
        return util::Status::Error(
            "frozen: header totals mismatch");
    total_entries_ = total_entries;
    total_bytes_ = total_bytes;
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

FrozenLookup
FrozenTable::lookup(const events::EventObject &ev,
                    const games::Game &game,
                    LookupScratch &scratch) const
{
    const TypeView &tv = types_[static_cast<int>(ev.type)];
    FrozenLookup res;
    if (tv.nselected == 0)
        return res;

    // Gathering the selected inputs costs their size even when no
    // candidates exist (they must be loaded to compare).
    res.bytes_scanned = tv.selected_bytes;
    BucketMatch m = match(ev.type, gather(ev, game, scratch), scratch);
    res.candidates = m.candidates;
    res.bytes_scanned += m.bytes;
    if (m.hit()) {
        const KeyIndex::Entry &e =
            index_[static_cast<int>(ev.type)].entry(m.entry);
        res.hit = true;
        res.entry_ordinal = tv.entry_base + m.entry;
        res.nout = e.nout;
        res.out_ids = tv.out_ids + e.out_begin;
        res.out_values = tv.out_values + e.out_begin;
    }
    return res;
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
        v.bytes = tv.entry_bytes[e];
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

double
FrozenTable::indexLoadFactor() const
{
    uint64_t used = 0, cap = 0;
    for (const auto &tv : types_) {
        if (tv.nselected == 0)
            continue;
        used += tv.buckets;
        cap += tv.capacity;
    }
    return cap ? static_cast<double>(used) /
                     static_cast<double>(cap)
               : 0.0;
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
    reg.gauge("table.index_load_factor").set(indexLoadFactor());
}

}  // namespace core
}  // namespace snip
