#include "core/model_codec.h"

#include <bit>
#include <set>

#include "trace/trace_log.h"

namespace snip {
namespace core {

namespace {

/** Minimum encoded sizes, used to sanity-bound decoded counts. */
constexpr uint64_t kMinFieldDefBytes = 10;  // len + side + cat + size
constexpr uint64_t kMinTypeModelBytes = 17; // type + records + error

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

void
encodePayload(const SnipModel &model, util::ByteBuffer &buf)
{
    buf.putString(model.game);

    static const events::FieldSchema kNoSchema;
    encodeSchema(model.table ? model.table->schema() : kNoSchema, buf);

    buf.putU32(static_cast<uint32_t>(model.types.size()));
    // A type record is what a decoded package is read for (the
    // confidence gate, `snip inspect`); the selection itself ships
    // once, in the arena.
    for (const auto &t : model.types) {
        buf.putU8(static_cast<uint8_t>(t.type));
        buf.putU64(t.records);
        buf.putU64(
            std::bit_cast<uint64_t>(t.selection.selected_error));
    }

    buf.putU8(model.table ? 1 : 0);
    if (!model.table)
        return;

    // The "SNPF" section: the frozen arena verbatim, preceded by
    // a u32 pad length + zero pad bytes chosen so the arena starts
    // 8-aligned *within the package* (the payload follows the
    // envelope header). The pad is a pure function of the offset, so
    // re-serialization stays byte-identical.
    size_t arena_pkg_off =
        util::kEnvelopeHeaderBytes + buf.size() + 4;  // after pad length
    uint32_t pad =
        static_cast<uint32_t>((8 - arena_pkg_off % 8) % 8);
    buf.putU32(pad);
    for (uint32_t i = 0; i < pad; ++i)
        buf.putU8(0);
    buf.putBytes(model.table->arenaData(), model.table->arenaSize());
}

/**
 * Decode the shared payload head: game name, schema snapshot,
 * per-type records and error, and the has-table flag.
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
        tm.selection.selected_error = std::bit_cast<double>(r.u64());
        if (!r.ok())
            return util::Status::Error("model: truncated type entry");
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
 * arena, which must fill the rest of the payload. The returned view
 * borrows the package bytes, which @p owner keeps alive.
 */
util::Status
decodeArena(util::ByteReader &r, size_t payload_size,
            const events::FieldSchema &schema,
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
    if ((util::kEnvelopeHeaderBytes + r.pos()) % 8 != 0)
        return util::Status::Error("model: arena not 8-aligned");
    std::span<const uint8_t> arena = r.bytes(payload_size - r.pos());
    auto view = FrozenTable::attach(arena.data(), arena.size(),
                                    std::move(owner), schema);
    if (!view.ok())
        return view.status();
    *out = std::move(view.value());
    return util::Status::Ok();
}

}  // namespace

void
packModel(const SnipModel &model, util::ByteBuffer &out)
{
    util::ByteBuffer payload;
    encodePayload(model, payload);
    util::sealEnvelope(kModelMagic, kModelVersion, payload.data(), out);
}

util::Status
inspectPackage(const util::ByteBuffer &buf, PackageInfo *info)
{
    util::Result<util::Envelope> env =
        util::openEnvelope(buf.data(), kModelMagic, "model");
    if (!env.ok())
        return env.status();
    info->version = env.value().version;
    info->payload_bytes =
        static_cast<uint32_t>(env.value().payload.size());
    info->crc = env.value().crc;
    info->crc_ok = env.value().crc_ok;
    return util::Status::Ok();
}

namespace {

/**
 * Validate the envelope and decode the payload. A table section is
 * attached as a FrozenTable view over @p bytes into `model->table`;
 * @p owner keeps them alive.
 */
util::Status
decodePackage(std::span<const uint8_t> bytes,
              std::shared_ptr<const void> owner, SnipModel *model,
              events::FieldSchema *schema)
{
    util::Result<util::Envelope> env =
        util::openEnvelope(bytes, kModelMagic, "model");
    if (!env.ok())
        return env.status();
    if (env.value().version != kModelVersion)
        return util::Status::Errorf(
            "model: unsupported version %u (expected %u)",
            env.value().version, kModelVersion);
    if (!env.value().crc_ok)
        return util::Status::Errorf(
            "model: CRC mismatch (stored 0x%08x): corrupt payload",
            env.value().crc);

    std::span<const uint8_t> payload = env.value().payload;
    util::ByteReader r(payload);
    bool has_table = false;
    util::Status st = decodeMeta(r, model, schema, &has_table);
    if (!st.ok())
        return st;
    if (has_table) {
        st = decodeArena(r, payload.size(), *schema, std::move(owner),
                         &model->table);
        if (!st.ok())
            return st;
    }
    if (r.pos() != payload.size())
        return util::Status::Error(
            "model: trailing bytes in payload");
    // Each selection is read from the arena, its one home; a type the
    // arena does not deploy keeps an empty one.
    if (model->table) {
        for (TypeModel &tm : model->types) {
            tm.selection.selected =
                model->table->selectedVector(tm.type);
            tm.selection.selected_bytes =
                model->table->selectedBytes(tm.type);
        }
    }
    return util::Status::Ok();
}

}  // namespace

util::Result<SnipModel>
unpackModel(const util::ByteBuffer &buf)
{
    return deployModel(std::make_shared<util::ByteBuffer>(buf));
}

util::Result<SnipModel>
deployModel(std::shared_ptr<const util::ByteBuffer> pkg)
{
    if (!pkg)
        return util::Status::Error("model: null package");
    // Zero-copy deploy: the FrozenTable is a validated view over the
    // package bytes, kept alive by sharing ownership of the buffer
    // itself. No per-entry copy of the arena.
    SnipModel model;
    events::FieldSchema schema;
    util::Status st = decodePackage(pkg->data(), pkg, &model, &schema);
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
