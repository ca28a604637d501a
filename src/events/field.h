/**
 * @file
 * Input/output field model. Every datum an event-handler execution
 * consumes or produces is a *field*: a named, categorized, sized
 * location. The paper's entire argument is about which fields must
 * be tracked (In.Event / In.History / In.Extern on the input side,
 * Out.Temp / Out.History / Out.Extern on the output side), so fields
 * are the common currency of the trace, ML, and memoization layers.
 *
 * Field values are carried as 64-bit scalars (semantic fields hold
 * their quantity; bulk payload fields hold a content hash). The
 * declared size_bytes is what lookup-table sizing accounts, matching
 * the paper's byte-level table-size analysis.
 */

#ifndef SNIP_EVENTS_FIELD_H
#define SNIP_EVENTS_FIELD_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace snip {
namespace events {

/** Identifier of a field location within one game's schema. */
using FieldId = uint32_t;

/** Sentinel for "no such field". */
constexpr FieldId kInvalidField = ~0u;

/** Input categories (paper §IV-A). */
enum class InputCategory : uint8_t {
    Event = 0,   ///< In.Event: the event object itself.
    History,     ///< In.History: previous execution outputs.
    Extern,      ///< In.Extern: network/cloud/file data.
};

/** Output categories (paper §IV-B). */
enum class OutputCategory : uint8_t {
    Temp = 0,    ///< Out.Temp: ephemeral user-visible effects.
    History,     ///< Out.History: consumed by future executions.
    Extern,      ///< Out.Extern: leaves the device.
};

/** Display name of an input category. */
const char *inputCategoryName(InputCategory c);
/** Display name of an output category. */
const char *outputCategoryName(OutputCategory c);

/** Side of a field: input or output. */
enum class FieldSide : uint8_t { Input, Output };

/** Static description of one field location. */
struct FieldDef {
    FieldId id = kInvalidField;
    std::string name;
    FieldSide side = FieldSide::Input;
    /** Valid when side == Input. */
    InputCategory in_cat = InputCategory::Event;
    /** Valid when side == Output. */
    OutputCategory out_cat = OutputCategory::Temp;
    /** Size of the location in bytes (for table sizing). */
    uint32_t size_bytes = 0;
};

/** One observed (field, value) pair. */
struct FieldValue {
    FieldId id = kInvalidField;
    uint64_t value = 0;

    bool operator==(const FieldValue &o) const
    {
        return id == o.id && value == o.value;
    }
};

/**
 * A game's field universe: the union of all input/output locations
 * its handlers ever touch (what the naive lookup table must store a
 * column for).
 */
class FieldSchema
{
  public:
    /** Register an input field; returns its id. Names are unique. */
    FieldId addInput(const std::string &name, InputCategory cat,
                     uint32_t size_bytes);

    /** Register an output field; returns its id. */
    FieldId addOutput(const std::string &name, OutputCategory cat,
                      uint32_t size_bytes);

    /** Make room for @p n fields in all. */
    void reserve(size_t n);

    /** Look up a definition; panics on unknown id. */
    const FieldDef &def(FieldId id) const;

    /** Find a field id by name; kInvalidField when absent. */
    FieldId find(const std::string &name) const;

    /** Number of registered fields. */
    size_t size() const { return defs_.size(); }

    /** All definitions in registration order. */
    const std::vector<FieldDef> &defs() const { return defs_; }

    /** Sum of sizes of the given fields (bytes). */
    uint64_t bytesOf(const std::vector<FieldValue> &values) const;

    /** Sum of sizes of all registered *input* fields (bytes). */
    uint64_t totalInputBytes() const;

    /** Sum of sizes of all registered *output* fields (bytes). */
    uint64_t totalOutputBytes() const;

  private:
    FieldId add(FieldDef def);

    std::vector<FieldDef> defs_;
    std::unordered_map<std::string, FieldId> byName_;
};

/** Stable-sort a field-value vector by id (canonical record order). */
void canonicalize(std::vector<FieldValue> &values);

/** Find a value by field id; returns nullptr when absent. */
const FieldValue *findField(const std::vector<FieldValue> &values,
                            FieldId id);

/** Order-insensitive hash of a field-value set. */
uint64_t hashFields(const std::vector<FieldValue> &values);

}  // namespace events
}  // namespace snip

#endif  // SNIP_EVENTS_FIELD_H
