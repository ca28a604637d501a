/**
 * @file
 * Byte-level helpers: the append-only byte buffer every encoder
 * writes, the one reader, bounds check and sealed envelope every
 * decoder of untrusted bytes uses (DESIGN.md "Untrusted bytes"), hex
 * formatting, and the FNV-1a hash used to key memoization tables.
 */

#ifndef SNIP_UTIL_BYTES_H
#define SNIP_UTIL_BYTES_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace snip {
namespace util {

/**
 * 64-bit FNV-1a over a raw byte range. Passing the hash of a prefix
 * as @p seed continues the stream: fnv1a(b, n, fnv1a(a, m)) equals
 * fnv1a over a‖b.
 */
uint64_t fnv1a(const void *data, size_t len,
               uint64_t seed = 0xcbf29ce484222325ULL);

/** 64-bit FNV-1a over a string. */
uint64_t fnv1a(const std::string &s);

/**
 * Replace the file at @p path with @p len bytes, crash-consistently:
 * write `<path>.tmp`, fsync and close it, then rename it over
 * @p path. A crash at any point leaves either the old file or the
 * new one, never a torn one; on any failure the tmp file is removed
 * and @p path is untouched.
 */
Status writeFileAtomic(const std::string &path, const void *data,
                       size_t len);

/** Human-readable size string, e.g. "1.5 GB", "640 B". */
std::string formatSize(double bytes);

/**
 * Append-only byte buffer with little-endian primitive writers: the
 * encoder side of every wire format. Decoding goes through a
 * ByteReader over data(), so reading never changes a buffer.
 */
class ByteBuffer
{
  public:
    ByteBuffer() = default;

    /** Append a single byte. */
    void putU8(uint8_t v);
    /** Append a 32-bit little-endian value. */
    void putU32(uint32_t v);
    /** Append a 64-bit little-endian value. */
    void putU64(uint64_t v);
    /** Append a length-prefixed string. */
    void putString(const std::string &s);
    /** Append a raw byte range (no length prefix). */
    void putBytes(const void *data, size_t len);

    /** A no-op: a buffer has no read position (decoders read
     *  through a ByteReader). Kept for the loop benchmark's calls. */
    void rewind() {}

    /** Number of bytes stored. */
    size_t size() const { return data_.size(); }
    /** Raw storage access. */
    const std::vector<uint8_t> &data() const { return data_; }

    /** Hash of the whole contents. */
    uint64_t hash() const { return fnv1a(data_.data(), data_.size()); }

  private:
    std::vector<uint8_t> data_;
};

/*
 * Untrusted bytes. Every wire format is little-endian and the
 * zero-copy views (the SNPF arena, SNCT sections) reinterpret their
 * bytes in place, so the host must be little-endian too.
 */
static_assert(std::endian::native == std::endian::little,
              "wire formats are read in place as little-endian");

/** Unaligned loads and stores at a raw byte pointer. */
inline uint32_t
readU32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline uint64_t
readU64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

inline void
writeU32(uint8_t *p, uint32_t v)
{
    std::memcpy(p, &v, 4);
}

inline void
writeU64(uint8_t *p, uint64_t v)
{
    std::memcpy(p, &v, 8);
}

/** Round @p off up to a multiple of 8. */
constexpr size_t
align8(size_t off)
{
    return (off + 7) & ~size_t{7};
}

/**
 * The bounds check of a zero-copy view: @p count elements of
 * @p elem bytes starting at @p off lie inside a @p size-byte region,
 * and @p off is a multiple of @p align (the typed view reads the
 * bytes directly, so misalignment would be UB). Overflow-safe for
 * any decoded count.
 */
constexpr bool
spanFits(uint64_t size, uint64_t off, uint64_t count, uint64_t elem,
         uint64_t align)
{
    return off <= size && count <= (size - off) / elem &&
           off % align == 0;
}

/**
 * Failure-latching reader over an immutable byte span, with its own
 * position. After the first underrun every read returns a zero value
 * (an empty string or span) and ok() turns false, so a decoder reads
 * a whole record and checks ok() once. Decoders check fits() before
 * trusting a decoded count that controls allocation or iteration,
 * and compare pos() with the size at the end to reject trailing
 * bytes. Reading the same bytes twice gives the same result.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes)
    {
    }

    uint8_t
    u8()
    {
        const uint8_t *p = take(1);
        return p ? *p : 0;
    }
    uint32_t
    u32()
    {
        const uint8_t *p = take(4);
        return p ? readU32(p) : 0;
    }
    uint64_t
    u64()
    {
        const uint8_t *p = take(8);
        return p ? readU64(p) : 0;
    }
    /** A u32 length-prefixed string. */
    std::string
    str()
    {
        uint32_t n = u32();
        const uint8_t *p = take(n);
        return p ? std::string(reinterpret_cast<const char *>(p), n)
                 : std::string();
    }
    /** The next @p n bytes as a zero-copy sub-span. */
    std::span<const uint8_t>
    bytes(size_t n)
    {
        const uint8_t *p = take(n);
        return p ? std::span<const uint8_t>(p, n)
                 : std::span<const uint8_t>();
    }
    /** Skip @p n bytes (latching, like a read). */
    void skip(size_t n) { take(n); }

    /**
     * Sanity-bound a decoded element count before reserving memory
     * for it: true iff @p count elements of at least
     * @p min_bytes_each could still fit in the remaining bytes.
     * Latches the failure like a read would.
     */
    bool
    fits(uint64_t count, uint64_t min_bytes_each)
    {
        if (ok_ && min_bytes_each > 0 &&
            count > (bytes_.size() - pos_) / min_bytes_each)
            ok_ = false;
        return ok_;
    }

    /** No read so far has underrun (and every fits() held). */
    bool ok() const { return ok_; }
    /** Bytes consumed so far. */
    size_t pos() const { return pos_; }

  private:
    /** Consume @p n bytes; nullptr (and latch) on underrun. */
    const uint8_t *
    take(size_t n)
    {
        if (!ok_ || n > bytes_.size() - pos_) {
            ok_ = false;
            return nullptr;
        }
        const uint8_t *p = bytes_.data() + pos_;
        pos_ += n;
        return p;
    }

    std::span<const uint8_t> bytes_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * The one sealed envelope of the OTA formats (SNPM packages, SNPD
 * patches):
 *
 *   u32 magic | u32 version | u32 payload_len |
 *   payload bytes | u32 crc32(payload)
 */
constexpr size_t kEnvelopeHeaderBytes = 12;
constexpr size_t kEnvelopeFooterBytes = 4;

/** Append @p payload to @p out sealed in the envelope. */
void sealEnvelope(uint32_t magic, uint32_t version,
                  std::span<const uint8_t> payload, ByteBuffer &out);

/** An opened envelope; the payload borrows the opened bytes. */
struct Envelope {
    uint32_t version = 0;
    std::span<const uint8_t> payload;
    /** CRC stored in the footer. */
    uint32_t crc = 0;
    /** The footer CRC matches the payload. */
    bool crc_ok = false;
};

/**
 * Open the envelope that fills @p bytes exactly. Errors (prefixed
 * with @p what) on a truncated header, a magic other than @p magic,
 * or a payload length that does not account for every byte. The
 * version and the CRC are reported, not checked: each format decides
 * which versions it reads, and inspect tooling shows a mismatching
 * CRC instead of refusing the header.
 */
Result<Envelope> openEnvelope(std::span<const uint8_t> bytes,
                              uint32_t magic, const char *what);

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_BYTES_H
