#include "events/field.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace events {

const char *
inputCategoryName(InputCategory c)
{
    switch (c) {
      case InputCategory::Event: return "In.Event";
      case InputCategory::History: return "In.History";
      case InputCategory::Extern: return "In.Extern";
    }
    return "?";
}

const char *
outputCategoryName(OutputCategory c)
{
    switch (c) {
      case OutputCategory::Temp: return "Out.Temp";
      case OutputCategory::History: return "Out.History";
      case OutputCategory::Extern: return "Out.Extern";
    }
    return "?";
}

FieldId
FieldSchema::add(FieldDef def)
{
    if (def.name.empty())
        util::fatal("FieldSchema: empty field name");
    if (def.size_bytes == 0)
        util::fatal("FieldSchema: field %s has zero size", def.name.c_str());
    if (byName_.count(def.name))
        util::fatal("FieldSchema: duplicate field name %s",
                    def.name.c_str());
    def.id = static_cast<FieldId>(defs_.size());
    byName_[def.name] = def.id;
    defs_.push_back(std::move(def));
    return defs_.back().id;
}

FieldId
FieldSchema::addInput(const std::string &name, InputCategory cat,
                      uint32_t size_bytes)
{
    FieldDef d;
    d.name = name;
    d.side = FieldSide::Input;
    d.in_cat = cat;
    d.size_bytes = size_bytes;
    return add(std::move(d));
}

FieldId
FieldSchema::addOutput(const std::string &name, OutputCategory cat,
                       uint32_t size_bytes)
{
    FieldDef d;
    d.name = name;
    d.side = FieldSide::Output;
    d.out_cat = cat;
    d.size_bytes = size_bytes;
    return add(std::move(d));
}

void
FieldSchema::reserve(size_t n)
{
    defs_.reserve(n);
    byName_.reserve(n);
}

const FieldDef &
FieldSchema::def(FieldId id) const
{
    if (id >= defs_.size())
        util::panic("FieldSchema: unknown field id %u", id);
    return defs_[id];
}

FieldId
FieldSchema::find(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? kInvalidField : it->second;
}

uint64_t
FieldSchema::bytesOf(const std::vector<FieldValue> &values) const
{
    uint64_t total = 0;
    for (const auto &v : values)
        total += def(v.id).size_bytes;
    return total;
}

uint64_t
FieldSchema::totalInputBytes() const
{
    uint64_t total = 0;
    for (const auto &d : defs_)
        if (d.side == FieldSide::Input)
            total += d.size_bytes;
    return total;
}

uint64_t
FieldSchema::totalOutputBytes() const
{
    uint64_t total = 0;
    for (const auto &d : defs_)
        if (d.side == FieldSide::Output)
            total += d.size_bytes;
    return total;
}

void
canonicalize(std::vector<FieldValue> &values)
{
    // Records are short and nearly sorted (a handler appends a few
    // history reads behind its event fields), so an insertion sort
    // is a linear pass plus a few short moves. Long inputs only come
    // from non-canonical producers; they take a stable sort so the
    // worst case stays O(n log n). Both are stable, so equal ids keep
    // their order whichever runs.
    constexpr size_t kInsertionMax = 64;
    if (values.size() > kInsertionMax) {
        std::stable_sort(values.begin(), values.end(),
                         [](const FieldValue &a, const FieldValue &b) {
                             return a.id < b.id;
                         });
        return;
    }
    for (size_t i = 1; i < values.size(); ++i) {
        FieldValue v = values[i];
        size_t j = i;
        for (; j > 0 && values[j - 1].id > v.id; --j)
            values[j] = values[j - 1];
        values[j] = v;
    }
}

const FieldValue *
findField(const std::vector<FieldValue> &values, FieldId id)
{
    for (const auto &v : values)
        if (v.id == id)
            return &v;
    return nullptr;
}

uint64_t
hashFields(const std::vector<FieldValue> &values)
{
    // Order-insensitive: XOR of per-pair mixed hashes.
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const auto &v : values)
        h ^= util::mixCombine(v.id, v.value);
    return h;
}

}  // namespace events
}  // namespace snip
