#include "trace/trace_log.h"

#include <cstdio>


namespace snip {
namespace trace {

namespace {

constexpr uint32_t kEventTraceMagic = 0x534e5045;  // "SNPE"
constexpr uint32_t kVersion = 1;

/** Minimum encoded sizes, used to sanity-bound decoded counts. */
constexpr uint64_t kMinFieldBytes = 12;   // id u32 + value u64
constexpr uint64_t kMinEventBytes = 21;   // type + seq + ts + nfields

void
encodeFields(const std::vector<events::FieldValue> &fields,
             util::ByteBuffer &buf)
{
    buf.putU32(static_cast<uint32_t>(fields.size()));
    for (const auto &fv : fields) {
        buf.putU32(fv.id);
        buf.putU64(fv.value);
    }
}

util::Status
decodeFields(util::ByteReader &r,
             std::vector<events::FieldValue> *fields)
{
    uint32_t n = r.u32();
    if (!r.fits(n, kMinFieldBytes))
        return util::Status::Error("truncated field list");
    fields->clear();
    fields->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        events::FieldValue fv;
        fv.id = r.u32();
        fv.value = r.u64();
        fields->push_back(fv);
    }
    return util::Status::Ok();
}

util::Status
checkHeader(util::ByteReader &r, uint32_t magic, const char *what)
{
    uint32_t got_magic = r.u32();
    uint32_t got_version = r.u32();
    if (!r.ok())
        return util::Status::Errorf("%s: truncated header", what);
    if (got_magic != magic)
        return util::Status::Errorf("%s: bad magic 0x%08x", what,
                                    got_magic);
    if (got_version != kVersion)
        return util::Status::Errorf(
            "%s: unsupported version %u (expected %u)", what,
            got_version, kVersion);
    return util::Status::Ok();
}

}  // namespace

void
encodeEventTrace(const EventTrace &trace, util::ByteBuffer &buf)
{
    buf.putU32(kEventTraceMagic);
    buf.putU32(kVersion);
    buf.putString(trace.game);
    buf.putU32(static_cast<uint32_t>(trace.events.size()));
    for (const auto &ev : trace.events) {
        buf.putU8(static_cast<uint8_t>(ev.type));
        buf.putU64(ev.seq);
        buf.putU64(static_cast<uint64_t>(ev.timestamp * 1e9));
        encodeFields(ev.fields, buf);
    }
}

util::Status
decodeEventTrace(const util::ByteBuffer &buf, EventTrace *out)
{
    util::ByteReader r(buf.data());
    util::Status st =
        checkHeader(r, kEventTraceMagic, "decodeEventTrace");
    if (!st.ok())
        return st;
    EventTrace trace;
    trace.game = r.str();
    uint32_t n = r.u32();
    if (!r.fits(n, kMinEventBytes))
        return util::Status::Error(
            "decodeEventTrace: truncated event list");
    trace.events.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        events::EventObject ev;
        uint8_t type = r.u8();
        if (type >= events::kNumEventTypes)
            return util::Status::Errorf(
                "decodeEventTrace: bad event type %u", type);
        ev.type = static_cast<events::EventType>(type);
        ev.seq = r.u64();
        ev.timestamp = static_cast<double>(r.u64()) * 1e-9;
        st = decodeFields(r, &ev.fields);
        if (!st.ok())
            return st;
        trace.events.push_back(std::move(ev));
    }
    if (!r.ok())
        return util::Status::Error("decodeEventTrace: truncated");
    *out = std::move(trace);
    return util::Status::Ok();
}

util::Status
saveBuffer(const util::ByteBuffer &buf, const std::string &path)
{
    util::Status st =
        util::writeFileAtomic(path, buf.data().data(), buf.size());
    if (!st.ok())
        return util::Status::Errorf("saveBuffer: %s",
                                    st.message().c_str());
    return st;
}

util::Status
loadBuffer(const std::string &path, util::ByteBuffer *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return util::Status::Errorf("loadBuffer: cannot open %s",
                                    path.c_str());
    util::ByteBuffer buf;
    uint8_t chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        buf.putBytes(chunk, got);
    bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        return util::Status::Errorf("loadBuffer: read error on %s",
                                    path.c_str());
    *out = std::move(buf);
    return util::Status::Ok();
}

}  // namespace trace
}  // namespace snip
