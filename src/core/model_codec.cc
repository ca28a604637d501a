#include "core/model_codec.h"

#include <bit>
#include <set>

#include "trace/trace_log.h"
#include "util/crc32.h"

namespace snip {
namespace core {

namespace {

/** Minimum encoded sizes, used to sanity-bound decoded counts. */
constexpr uint64_t kMinFieldDefBytes = 10;  // len + side + cat + size
constexpr uint64_t kMinTypeModelBytes = 49; // fixed TypeModel scalars
constexpr uint64_t kMinFieldIdBytes = 4;

void
encodeSchema(const events::FieldSchema &schema, util::ByteBuffer &buf)
{
    buf.putU32(static_cast<uint32_t>(schema.size()));
    for (const auto &d : schema.defs()) {
        buf.putString(d.name);
        buf.putU8(static_cast<uint8_t>(d.side));
        buf.putU8(d.side == events::FieldSide::Input
                      ? static_cast<uint8_t>(d.in_cat)
                      : static_cast<uint8_t>(d.out_cat));
        buf.putU32(d.size_bytes);
    }
}

util::Status
decodeSchema(util::ByteReader &r, events::FieldSchema *schema)
{
    uint32_t n = r.u32();
    if (!r.fits(n, kMinFieldDefBytes))
        return util::Status::Error("model: truncated schema");
    std::set<std::string> names;
    for (uint32_t i = 0; i < n; ++i) {
        std::string name = r.str();
        uint8_t side = r.u8();
        uint8_t cat = r.u8();
        uint32_t size_bytes = r.u32();
        if (!r.ok())
            return util::Status::Error("model: truncated schema");
        if (name.empty() || !names.insert(name).second)
            return util::Status::Errorf(
                "model: bad schema field name at index %u", i);
        if (side > 1 || cat > 2 || size_bytes == 0)
            return util::Status::Errorf(
                "model: bad schema field '%s'", name.c_str());
        if (side == static_cast<uint8_t>(events::FieldSide::Input))
            schema->addInput(
                name, static_cast<events::InputCategory>(cat),
                size_bytes);
        else
            schema->addOutput(
                name, static_cast<events::OutputCategory>(cat),
                size_bytes);
    }
    return util::Status::Ok();
}

/** Validate a decoded field-id list: in-schema, on the right side,
 *  strictly ascending (the canonical order every encoder emits). */
util::Status
checkFieldIds(const std::vector<events::FieldId> &ids,
              const events::FieldSchema &schema,
              events::FieldSide side, const char *what)
{
    events::FieldId prev = events::kInvalidField;
    for (events::FieldId id : ids) {
        if (id >= schema.size())
            return util::Status::Errorf("model: %s id %u out of "
                                        "schema range", what, id);
        if (schema.def(id).side != side)
            return util::Status::Errorf("model: %s id %u on wrong "
                                        "side", what, id);
        if (prev != events::kInvalidField && id <= prev)
            return util::Status::Errorf("model: %s ids not strictly "
                                        "ascending", what);
        prev = id;
    }
    return util::Status::Ok();
}

util::Status
decodeFieldIds(util::ByteReader &r,
               std::vector<events::FieldId> *ids, const char *what)
{
    uint32_t n = r.u32();
    if (!r.fits(n, kMinFieldIdBytes))
        return util::Status::Errorf("model: truncated %s list", what);
    ids->clear();
    ids->reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        ids->push_back(r.u32());
    return util::Status::Ok();
}

/** Package offset where the payload starts (after the header). */
constexpr size_t kPayloadPackageOffset = 12;

void
encodePayload(const SnipModel &model, util::ByteBuffer &buf)
{
    buf.putString(model.game);

    static const events::FieldSchema kNoSchema;
    encodeSchema(model.table ? model.table->schema() : kNoSchema, buf);

    buf.putU32(static_cast<uint32_t>(model.types.size()));
    for (const auto &t : model.types) {
        buf.putU8(static_cast<uint8_t>(t.type));
        buf.putU64(t.records);
        buf.putU32(static_cast<uint32_t>(t.selection.selected.size()));
        for (events::FieldId fid : t.selection.selected)
            buf.putU32(fid);
        buf.putU64(t.selection.selected_bytes);
        buf.putU64(std::bit_cast<uint64_t>(t.selection.full_error));
        buf.putU64(t.selection.full_bytes);
        buf.putU64(
            std::bit_cast<uint64_t>(t.selection.selected_error));
        buf.putU64(
            std::bit_cast<uint64_t>(t.selection.selected_hit_rate));
    }

    buf.putU8(model.table ? 1 : 0);
    if (!model.table)
        return;

    // The "SNPF" section: the frozen arena verbatim, preceded by
    // a u32 pad length + zero pad bytes chosen so the arena starts
    // 8-aligned *within the package* (payload begins at package
    // offset 12). The pad is a pure function of the cursor, so
    // re-serialization stays byte-identical.
    size_t arena_pkg_off =
        kPayloadPackageOffset + buf.size() + 4;  // after pad length
    uint32_t pad =
        static_cast<uint32_t>((8 - arena_pkg_off % 8) % 8);
    buf.putU32(pad);
    for (uint32_t i = 0; i < pad; ++i)
        buf.putU8(0);
    buf.putBytes(model.table->arenaData(), model.table->arenaSize());
}

/**
 * Decode the shared payload head: game name, schema snapshot,
 * per-type selection metadata and the has-table flag.
 */
util::Status
decodeMeta(util::ByteReader &r, SnipModel *model,
           events::FieldSchema *schema, bool *has_table)
{
    model->game = r.str();

    util::Status st = decodeSchema(r, schema);
    if (!st.ok())
        return st;

    uint32_t ntypes = r.u32();
    if (!r.fits(ntypes, kMinTypeModelBytes))
        return util::Status::Error("model: truncated type list");
    std::set<uint8_t> seen_types;
    for (uint32_t i = 0; i < ntypes; ++i) {
        TypeModel tm;
        uint8_t type = r.u8();
        if (r.ok() && (type >= events::kNumEventTypes ||
                       !seen_types.insert(type).second))
            return util::Status::Errorf(
                "model: bad or duplicate event type %u", type);
        tm.type = static_cast<events::EventType>(type);
        tm.records = r.u64();
        st = decodeFieldIds(r, &tm.selection.selected, "selection");
        if (!st.ok())
            return st;
        tm.selection.selected_bytes = r.u64();
        tm.selection.full_error = std::bit_cast<double>(r.u64());
        tm.selection.full_bytes = r.u64();
        tm.selection.selected_error = std::bit_cast<double>(r.u64());
        tm.selection.selected_hit_rate =
            std::bit_cast<double>(r.u64());
        if (!r.ok())
            return util::Status::Error("model: truncated type entry");
        st = checkFieldIds(tm.selection.selected, *schema,
                           events::FieldSide::Input, "selection");
        if (!st.ok())
            return st;
        model->types.push_back(std::move(tm));
    }

    uint8_t flag = r.u8();
    if (!r.ok())
        return util::Status::Error("model: truncated table flag");
    if (flag > 1)
        return util::Status::Errorf("model: bad table flag %u", flag);
    *has_table = flag != 0;
    return util::Status::Ok();
}

/**
 * Decode the "SNPF" section: pad length + zero pad + the frozen
 * arena, which must fill the payload exactly. The returned view
 * borrows the package bytes, which @p owner keeps alive.
 */
util::Status
decodeArena(util::ByteBuffer &buf, util::ByteReader &r,
            size_t payload_end, const events::FieldSchema &schema,
            std::shared_ptr<const void> owner,
            std::shared_ptr<const FrozenTable> *out)
{
    uint32_t pad = r.u32();
    if (!r.ok())
        return util::Status::Error("model: truncated arena pad");
    if (pad >= 8)
        return util::Status::Errorf("model: bad arena pad %u", pad);
    for (uint32_t i = 0; i < pad; ++i) {
        uint8_t b = r.u8();
        if (!r.ok())
            return util::Status::Error("model: truncated arena pad");
        if (b != 0)
            return util::Status::Error(
                "model: nonzero arena pad byte");
    }
    if (buf.cursor() % 8 != 0)
        return util::Status::Error("model: arena not 8-aligned");
    if (buf.cursor() > payload_end)
        return util::Status::Error("model: truncated arena");
    size_t len = payload_end - buf.cursor();
    auto view = FrozenTable::attach(
        buf.data().data() + buf.cursor(), len, std::move(owner),
        schema);
    if (!view.ok())
        return view.status();
    r.skip(len);
    *out = std::move(view.value());
    return util::Status::Ok();
}

}  // namespace

void
packModel(const SnipModel &model, util::ByteBuffer &out)
{
    util::ByteBuffer payload;
    encodePayload(model, payload);
    out.putU32(kModelMagic);
    out.putU32(kModelVersion);
    out.putU32(static_cast<uint32_t>(payload.size()));
    out.putBytes(payload.data().data(), payload.size());
    out.putU32(util::crc32(payload.data().data(), payload.size()));
}

util::Status
inspectPackage(util::ByteBuffer &buf, PackageInfo *info)
{
    buf.rewind();
    util::ByteReader r(buf);
    uint32_t magic = r.u32();
    info->version = r.u32();
    info->payload_bytes = r.u32();
    if (!r.ok())
        return util::Status::Error("model: truncated header");
    if (magic != kModelMagic)
        return util::Status::Errorf("model: bad magic 0x%08x", magic);
    if (buf.remaining() != info->payload_bytes + 4ull)
        return util::Status::Errorf(
            "model: payload length %u does not match package size",
            info->payload_bytes);
    const uint8_t *payload = buf.data().data() + buf.cursor();
    uint32_t computed = util::crc32(payload, info->payload_bytes);
    const uint8_t *footer = payload + info->payload_bytes;
    info->crc = static_cast<uint32_t>(footer[0]) |
                static_cast<uint32_t>(footer[1]) << 8 |
                static_cast<uint32_t>(footer[2]) << 16 |
                static_cast<uint32_t>(footer[3]) << 24;
    info->crc_ok = computed == info->crc;
    return util::Status::Ok();
}

namespace {

/**
 * Validate the envelope and decode the payload. A table section is
 * attached as a FrozenTable view over @p buf's bytes into
 * `model->table`; @p owner keeps them alive.
 */
util::Status
decodePackage(util::ByteBuffer &buf, std::shared_ptr<const void> owner,
              SnipModel *model, events::FieldSchema *schema)
{
    PackageInfo info;
    util::Status st = inspectPackage(buf, &info);
    if (!st.ok())
        return st;
    if (info.version != kModelVersion)
        return util::Status::Errorf(
            "model: unsupported version %u (expected %u)",
            info.version, kModelVersion);
    if (!info.crc_ok)
        return util::Status::Errorf(
            "model: CRC mismatch (stored 0x%08x): corrupt payload",
            info.crc);

    // inspectPackage left the cursor at the payload start.
    size_t payload_end = buf.cursor() + info.payload_bytes;
    util::ByteReader r(buf);
    bool has_table = false;
    st = decodeMeta(r, model, schema, &has_table);
    if (!st.ok())
        return st;
    if (has_table) {
        st = decodeArena(buf, r, payload_end, *schema, std::move(owner),
                         &model->table);
        if (!st.ok())
            return st;
    }
    if (buf.cursor() != payload_end)
        return util::Status::Error(
            "model: trailing bytes in payload");
    return util::Status::Ok();
}

}  // namespace

util::Result<SnipModel>
unpackModel(const util::ByteBuffer &buf)
{
    return deployModel(std::make_shared<util::ByteBuffer>(buf));
}

util::Result<SnipModel>
deployModel(std::shared_ptr<util::ByteBuffer> pkg)
{
    if (!pkg)
        return util::Status::Error("model: null package");
    // Zero-copy deploy: the FrozenTable is a validated view over the
    // package bytes, kept alive by sharing ownership of the buffer
    // itself. No per-entry copy of the arena.
    SnipModel model;
    events::FieldSchema schema;
    util::Status st = decodePackage(*pkg, pkg, &model, &schema);
    if (!st.ok())
        return st;
    return model;
}

util::Status
saveModel(const SnipModel &model, const std::string &path)
{
    util::ByteBuffer buf;
    packModel(model, buf);
    return trace::saveBuffer(buf, path);
}

util::Result<SnipModel>
loadModel(const std::string &path)
{
    util::ByteBuffer buf;
    util::Status st = trace::loadBuffer(path, &buf);
    if (!st.ok())
        return st;
    return unpackModel(buf);
}

uint64_t
packedModelBytes(const SnipModel &model)
{
    util::ByteBuffer buf;
    packModel(model, buf);
    return buf.size();
}

}  // namespace core
}  // namespace snip
