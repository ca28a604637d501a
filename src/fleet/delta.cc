#include "fleet/delta.h"

#include <cstring>
#include <unordered_map>
#include <vector>

#include "util/crc32.h"

namespace snip {
namespace fleet {

namespace {

/** Match granularity: runs shorter than this are carried as
 *  literals. Small enough to catch the SoA column fragments that
 *  survive an arena re-layout, large enough that a hash hit is
 *  almost always a real match. */
constexpr size_t kBlock = 32;

/** Op kinds on the wire. */
constexpr uint8_t kOpCopy = 0;
constexpr uint8_t kOpInsert = 1;

/** Minimum encoded op size (kind + len), to sanity-bound nops. */
constexpr uint64_t kMinOpBytes = 9;

/** Rolling polynomial hash over a kBlock window. */
struct RollingHash {
    static constexpr uint64_t kMul = 0x9e3779b185ebca87ULL;

    /** kMul^(kBlock-1), for removing the outgoing byte. */
    static uint64_t
    outMul()
    {
        uint64_t m = 1;
        for (size_t i = 1; i < kBlock; ++i)
            m *= kMul;
        return m;
    }

    static uint64_t
    of(const uint8_t *p)
    {
        uint64_t h = 0;
        for (size_t i = 0; i < kBlock; ++i)
            h = h * kMul + p[i];
        return h;
    }

    static uint64_t
    roll(uint64_t h, uint8_t out, uint8_t in, uint64_t out_mul)
    {
        return (h - out * out_mul) * kMul + in;
    }
};

struct Op {
    uint8_t kind;
    uint64_t src_off;  // copy only
    uint64_t len;      // copy: source run; insert: literal length
    /** Insert only: literal start, in tgt when encoding and in the
     *  patch payload when decoding. */
    uint64_t lit_off;
};

void
emitInsert(std::vector<Op> &ops, uint64_t tgt_off, uint64_t len)
{
    if (len == 0)
        return;
    // Coalesce with a directly preceding literal.
    if (!ops.empty() && ops.back().kind == kOpInsert &&
        ops.back().lit_off + ops.back().len == tgt_off) {
        ops.back().len += len;
        return;
    }
    ops.push_back(Op{kOpInsert, 0, len, tgt_off});
}

void
emitCopy(std::vector<Op> &ops, uint64_t src_off, uint64_t len)
{
    if (!ops.empty() && ops.back().kind == kOpCopy &&
        ops.back().src_off + ops.back().len == src_off) {
        ops.back().len += len;
        return;
    }
    ops.push_back(Op{kOpCopy, src_off, len, 0});
}

}  // namespace

void
diffBytes(std::span<const uint8_t> src, std::span<const uint8_t> tgt,
          util::ByteBuffer &out)
{
    // Greedy block matching: index every aligned source block by its
    // rolling hash (first occurrence wins, ties broken by position —
    // fully deterministic), then slide a window over the target and
    // turn verified hits into maximal copy runs.
    std::unordered_map<uint64_t, uint64_t> index;
    if (src.size() >= kBlock) {
        index.reserve(src.size() / kBlock * 2);
        for (size_t off = 0; off + kBlock <= src.size();
             off += kBlock)
            index.emplace(RollingHash::of(src.data() + off), off);
    }

    std::vector<Op> ops;
    const uint64_t out_mul = RollingHash::outMul();
    size_t pos = 0;       // target scan cursor
    size_t lit_start = 0; // pending literal [lit_start, pos)
    uint64_t h = tgt.size() >= kBlock ? RollingHash::of(tgt.data())
                                      : 0;
    while (pos + kBlock <= tgt.size()) {
        auto it = index.find(h);
        bool matched = false;
        if (it != index.end()) {
            size_t so = it->second;
            if (std::memcmp(src.data() + so, tgt.data() + pos,
                            kBlock) == 0) {
                // Verified hit: grow it forward as far as the bytes
                // agree, and backward into the pending literal.
                size_t len = kBlock;
                while (so + len < src.size() &&
                       pos + len < tgt.size() &&
                       src[so + len] == tgt[pos + len])
                    ++len;
                while (so > 0 && pos > lit_start &&
                       src[so - 1] == tgt[pos - 1]) {
                    --so;
                    --pos;
                    ++len;
                }
                emitInsert(ops, lit_start, pos - lit_start);
                emitCopy(ops, so, len);
                pos += len;
                lit_start = pos;
                if (pos + kBlock <= tgt.size())
                    h = RollingHash::of(tgt.data() + pos);
                matched = true;
            }
        }
        if (!matched) {
            if (pos + kBlock < tgt.size())
                h = RollingHash::roll(h, tgt[pos], tgt[pos + kBlock],
                                      out_mul);
            ++pos;
        }
    }
    emitInsert(ops, lit_start, tgt.size() - lit_start);

    util::ByteBuffer payload;
    payload.putU64(src.size());
    payload.putU32(util::crc32(src.data(), src.size()));
    payload.putU64(tgt.size());
    payload.putU32(util::crc32(tgt.data(), tgt.size()));
    payload.putU32(static_cast<uint32_t>(ops.size()));
    for (const Op &op : ops) {
        payload.putU8(op.kind);
        if (op.kind == kOpCopy) {
            payload.putU64(op.src_off);
            payload.putU64(op.len);
        } else {
            payload.putU64(op.len);
            payload.putBytes(tgt.data() + op.lit_off, op.len);
        }
    }

    util::sealEnvelope(kPatchMagic, kPatchVersion, payload.data(), out);
}

namespace {

/**
 * Open the envelope and decode the whole payload: the pinned
 * endpoints and the op counts into @p info, the ops into @p ops
 * (insert literals as offsets into @p payload). Rejects a bad
 * envelope, a truncated or unknown op and trailing bytes; the ops'
 * bounds against a source are applyPatch's to check.
 */
util::Status
decodePatch(const util::ByteBuffer &patch, PatchInfo *info,
            std::span<const uint8_t> *payload, std::vector<Op> *ops)
{
    util::Result<util::Envelope> env =
        util::openEnvelope(patch.data(), kPatchMagic, "patch");
    if (!env.ok())
        return env.status();
    if (env.value().version != kPatchVersion)
        return util::Status::Errorf(
            "patch: unsupported version %u (expected %u)",
            env.value().version, kPatchVersion);
    if (!env.value().crc_ok)
        return util::Status::Errorf(
            "patch: CRC mismatch (stored 0x%08x): corrupt patch",
            env.value().crc);
    *payload = env.value().payload;

    util::ByteReader r(*payload);
    info->src_bytes = r.u64();
    info->src_crc = r.u32();
    info->tgt_bytes = r.u64();
    info->tgt_crc = r.u32();
    uint32_t nops = r.u32();
    if (!r.fits(nops, kMinOpBytes))
        return util::Status::Error("patch: truncated payload head");
    ops->reserve(nops);
    for (uint32_t i = 0; i < nops; ++i) {
        Op op{r.u8(), 0, 0, 0};
        if (op.kind == kOpCopy) {
            op.src_off = r.u64();
            op.len = r.u64();
            ++info->copy_ops;
            info->copied_bytes += op.len;
        } else if (op.kind == kOpInsert) {
            op.len = r.u64();
            op.lit_off = r.pos();
            r.skip(op.len);
            ++info->insert_ops;
            info->inserted_bytes += op.len;
        } else {
            return util::Status::Errorf("patch: bad op kind %u",
                                        op.kind);
        }
        if (!r.ok())
            return util::Status::Error("patch: truncated op");
        ops->push_back(op);
    }
    if (r.pos() != payload->size())
        return util::Status::Error("patch: trailing payload bytes");
    return util::Status::Ok();
}

}  // namespace

util::Status
inspectPatch(const util::ByteBuffer &patch, PatchInfo *info)
{
    std::span<const uint8_t> payload;
    std::vector<Op> ops;
    return decodePatch(patch, info, &payload, &ops);
}

util::Result<util::ByteBuffer>
applyPatch(std::span<const uint8_t> src, const util::ByteBuffer &patch)
{
    PatchInfo info;
    std::span<const uint8_t> payload;
    std::vector<Op> ops;
    util::Status st = decodePatch(patch, &info, &payload, &ops);
    if (!st.ok())
        return st;

    if (info.src_bytes != src.size() ||
        info.src_crc != util::crc32(src.data(), src.size()))
        return util::Status::Error(
            "patch: source does not match the pinned base "
            "(stale or corrupt device copy)");

    util::ByteBuffer out;
    for (const Op &op : ops) {
        if (op.kind == kOpCopy &&
            (op.src_off > src.size() ||
             op.len > src.size() - op.src_off))
            return util::Status::Error(
                "patch: copy op out of source bounds");
        // out never exceeds the pinned length, so this cannot wrap.
        if (op.len > info.tgt_bytes - out.size())
            return util::Status::Error(
                "patch: ops overrun the pinned target length");
        out.putBytes(op.kind == kOpCopy ? src.data() + op.src_off
                                        : payload.data() + op.lit_off,
                     op.len);
    }
    if (out.size() != info.tgt_bytes)
        return util::Status::Errorf(
            "patch: reconstruction is %zu bytes, pinned target is "
            "%llu",
            out.size(),
            static_cast<unsigned long long>(info.tgt_bytes));
    if (util::crc32(out.data().data(), out.size()) != info.tgt_crc)
        return util::Status::Error(
            "patch: reconstruction fails the pinned target CRC");
    return out;
}

util::ByteBuffer
fetchWithDelta(std::span<const uint8_t> base,
               const util::ByteBuffer &patch,
               const util::ByteBuffer &full, bool *used_delta)
{
    util::Result<util::ByteBuffer> res = applyPatch(base, patch);
    if (used_delta)
        *used_delta = res.ok();
    if (res.ok())
        return std::move(res.value());
    util::ByteBuffer copy;
    copy.putBytes(full.data().data(), full.size());
    return copy;
}

}  // namespace fleet
}  // namespace snip
