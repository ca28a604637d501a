/**
 * @file
 * Byte-level helpers: a growable byte buffer with primitive
 * serialization, hex formatting, and the FNV-1a hash used to key
 * memoization tables.
 */

#ifndef SNIP_UTIL_BYTES_H
#define SNIP_UTIL_BYTES_H

#include <cstddef>
#include <cstdint>
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

/** Format bytes as lowercase hex. */
std::string toHex(const void *data, size_t len);

/** Human-readable size string, e.g. "1.5 GB", "640 B". */
std::string formatSize(double bytes);

/**
 * Append-only byte buffer with little-endian primitive writers and a
 * cursor-based reader, used by the trace log serialization.
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

    /** Read back (cursor-based); panics on underrun. */
    uint8_t getU8();
    uint32_t getU32();
    uint64_t getU64();
    std::string getString();

    /**
     * Non-panicking reads for untrusted input (OTA payloads, files):
     * on underrun they return false and leave the cursor unchanged.
     */
    bool tryGetU8(uint8_t *v);
    bool tryGetU32(uint32_t *v);
    bool tryGetU64(uint64_t *v);
    bool tryGetString(std::string *s);

    /** Advance the read cursor past @p n bytes without copying;
     *  false (cursor unchanged) on underrun. */
    bool trySkip(size_t n)
    {
        if (n > remaining())
            return false;
        cursor_ += n;
        return true;
    }

    /** Reset the read cursor to the beginning. */
    void rewind() { cursor_ = 0; }

    /** Current read-cursor position. */
    size_t cursor() const { return cursor_; }

    /** Number of bytes stored. */
    size_t size() const { return data_.size(); }
    /** Bytes remaining after the read cursor. */
    size_t remaining() const { return data_.size() - cursor_; }
    /** Raw storage access. */
    const std::vector<uint8_t> &data() const { return data_; }

    /** Hash of the whole contents. */
    uint64_t hash() const { return fnv1a(data_.data(), data_.size()); }

  private:
    void need(size_t n) const;

    std::vector<uint8_t> data_;
    size_t cursor_ = 0;
};

/**
 * Failure-latching reader over a ByteBuffer for decoding untrusted
 * input. Reads return zero values after the first underrun and ok()
 * turns false; decoders check ok() before trusting a value that
 * controls allocation or iteration, then once more at the end.
 */
class ByteReader
{
  public:
    explicit ByteReader(ByteBuffer &buf) : buf_(buf) {}

    uint8_t u8()
    {
        uint8_t v = 0;
        ok_ = ok_ && buf_.tryGetU8(&v);
        return v;
    }
    uint32_t u32()
    {
        uint32_t v = 0;
        ok_ = ok_ && buf_.tryGetU32(&v);
        return v;
    }
    uint64_t u64()
    {
        uint64_t v = 0;
        ok_ = ok_ && buf_.tryGetU64(&v);
        return v;
    }
    std::string str()
    {
        std::string s;
        ok_ = ok_ && buf_.tryGetString(&s);
        return s;
    }
    /** Skip @p n bytes (latching, like a read). */
    void skip(size_t n) { ok_ = ok_ && buf_.trySkip(n); }

    /**
     * Sanity-bound a decoded element count before reserving memory
     * for it: true iff @p count elements of at least
     * @p min_bytes_each could still fit in the remaining bytes.
     * Latches the failure like a read would.
     */
    bool fits(uint64_t count, uint64_t min_bytes_each)
    {
        if (ok_ && min_bytes_each > 0 &&
            count > buf_.remaining() / min_bytes_each)
            ok_ = false;
        return ok_;
    }

    /** No read so far has underrun (and every fits() held). */
    bool ok() const { return ok_; }

  private:
    ByteBuffer &buf_;
    bool ok_ = true;
};

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_BYTES_H
