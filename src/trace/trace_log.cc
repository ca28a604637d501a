#include "trace/trace_log.h"

#include <cstdio>

#include "util/logging.h"

namespace snip {
namespace trace {

namespace {

constexpr uint32_t kEventTraceMagic = 0x534e5045;  // "SNPE"
constexpr uint32_t kProfileMagic = 0x534e5050;     // "SNPP"
constexpr uint32_t kVersion = 1;

/** Minimum encoded sizes, used to sanity-bound decoded counts. */
constexpr uint64_t kMinFieldBytes = 12;   // id u32 + value u64
constexpr uint64_t kMinEventBytes = 21;   // type + seq + ts + nfields
constexpr uint64_t kMinRecordBytes = 54;  // fixed record scalars
constexpr uint64_t kMinIpCallBytes = 9;   // kind u8 + work u64

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
decodeEventTrace(util::ByteBuffer &buf, EventTrace *out)
{
    util::ByteReader r(buf);
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

void
encodeProfile(const Profile &profile, util::ByteBuffer &buf)
{
    buf.putU32(kProfileMagic);
    buf.putU32(kVersion);
    buf.putString(profile.game);
    buf.putU32(static_cast<uint32_t>(profile.records.size()));
    for (const auto &r : profile.records) {
        buf.putU8(static_cast<uint8_t>(r.type));
        buf.putU64(r.seq);
        encodeFields(r.inputs, buf);
        encodeFields(r.outputs, buf);
        buf.putU64(r.necessary_hash);
        buf.putU64(r.cpu_instructions);
        buf.putU64(r.memory_bytes);
        buf.putU32(static_cast<uint32_t>(r.ip_calls.size()));
        for (const auto &c : r.ip_calls) {
            buf.putU8(static_cast<uint8_t>(c.kind));
            buf.putU64(static_cast<uint64_t>(c.work_units * 1e6));
        }
        buf.putU64(static_cast<uint64_t>(r.maxcpu_fraction * 1e6));
        buf.putU8(static_cast<uint8_t>((r.state_changed ? 1 : 0) |
                                       (r.useless ? 2 : 0) |
                                       (r.scoring ? 4 : 0)));
    }
}

util::Status
decodeProfile(util::ByteBuffer &buf, Profile *out)
{
    util::ByteReader r(buf);
    util::Status st = checkHeader(r, kProfileMagic, "decodeProfile");
    if (!st.ok())
        return st;
    Profile profile;
    profile.game = r.str();
    uint32_t n = r.u32();
    if (!r.fits(n, kMinRecordBytes))
        return util::Status::Error(
            "decodeProfile: truncated record list");
    profile.records.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        games::HandlerExecution rec;
        uint8_t type = r.u8();
        if (r.ok() && type >= events::kNumEventTypes)
            return util::Status::Errorf(
                "decodeProfile: bad event type %u", type);
        rec.type = static_cast<events::EventType>(type);
        rec.seq = r.u64();
        st = decodeFields(r, &rec.inputs);
        if (!st.ok())
            return st;
        st = decodeFields(r, &rec.outputs);
        if (!st.ok())
            return st;
        rec.necessary_hash = r.u64();
        rec.cpu_instructions = r.u64();
        rec.memory_bytes = r.u64();
        uint32_t calls = r.u32();
        if (!r.fits(calls, kMinIpCallBytes))
            return util::Status::Error(
                "decodeProfile: truncated ip-call list");
        rec.ip_calls.reserve(calls);
        for (uint32_t c = 0; c < calls; ++c) {
            games::IpCall call;
            uint8_t kind = r.u8();
            if (r.ok() && kind >= soc::kNumIpKinds)
                return util::Status::Errorf(
                    "decodeProfile: bad ip kind %u", kind);
            call.kind = static_cast<soc::IpKind>(kind);
            call.work_units = static_cast<double>(r.u64()) * 1e-6;
            rec.ip_calls.push_back(call);
        }
        rec.maxcpu_fraction = static_cast<double>(r.u64()) * 1e-6;
        uint8_t flags = r.u8();
        rec.state_changed = flags & 1;
        rec.useless = flags & 2;
        rec.scoring = flags & 4;
        profile.records.push_back(std::move(rec));
    }
    if (!r.ok())
        return util::Status::Error("decodeProfile: truncated");
    *out = std::move(profile);
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
        for (size_t i = 0; i < got; ++i)
            buf.putU8(chunk[i]);
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
