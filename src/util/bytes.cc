#include "util/bytes.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"

namespace snip {
namespace util {

uint64_t
fnv1a(const void *data, size_t len, uint64_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
fnv1a(const std::string &s)
{
    return fnv1a(s.data(), s.size());
}

Status
writeFileAtomic(const std::string &path, const void *data, size_t len)
{
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return Status::Errorf("cannot open %s for writing: %s",
                              tmp.c_str(), std::strerror(errno));
    const char *failed = nullptr;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            failed = "write";
            break;
        }
        p += n;
        len -= static_cast<size_t>(n);
    }
    if (!failed && ::fsync(fd) != 0)
        failed = "fsync";
    if (::close(fd) != 0 && !failed)
        failed = "close";
    if (!failed && ::rename(tmp.c_str(), path.c_str()) != 0)
        failed = "rename";
    if (failed) {
        int err = errno;
        ::unlink(tmp.c_str());
        return Status::Errorf("%s of %s failed: %s", failed, tmp.c_str(),
                              std::strerror(err));
    }
    return Status::Ok();
}

std::string
toHex(const void *data, size_t len)
{
    static const char digits[] = "0123456789abcdef";
    const uint8_t *p = static_cast<const uint8_t *>(data);
    std::string out;
    out.reserve(len * 2);
    for (size_t i = 0; i < len; ++i) {
        out.push_back(digits[p[i] >> 4]);
        out.push_back(digits[p[i] & 0xf]);
    }
    return out;
}

std::string
formatSize(double bytes)
{
    static const char *suffixes[] = {"B", "kB", "MB", "GB", "TB"};
    int idx = 0;
    while (bytes >= 1024.0 && idx < 4) {
        bytes /= 1024.0;
        ++idx;
    }
    char buf[64];
    if (idx == 0)
        std::snprintf(buf, sizeof(buf), "%.0f %s", bytes, suffixes[idx]);
    else
        std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, suffixes[idx]);
    return std::string(buf);
}

void
ByteBuffer::putU8(uint8_t v)
{
    data_.push_back(v);
}

void
ByteBuffer::putU32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteBuffer::putU64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteBuffer::putString(const std::string &s)
{
    putU32(static_cast<uint32_t>(s.size()));
    data_.insert(data_.end(), s.begin(), s.end());
}

void
ByteBuffer::putBytes(const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    data_.insert(data_.end(), p, p + len);
}

void
sealEnvelope(uint32_t magic, uint32_t version,
             std::span<const uint8_t> payload, ByteBuffer &out)
{
    out.putU32(magic);
    out.putU32(version);
    out.putU32(static_cast<uint32_t>(payload.size()));
    out.putBytes(payload.data(), payload.size());
    out.putU32(crc32(payload.data(), payload.size()));
}

Result<Envelope>
openEnvelope(std::span<const uint8_t> bytes, uint32_t magic,
             const char *what)
{
    ByteReader r(bytes);
    uint32_t got_magic = r.u32();
    Envelope env;
    env.version = r.u32();
    uint32_t payload_len = r.u32();
    if (!r.ok())
        return Status::Errorf("%s: truncated header", what);
    if (got_magic != magic)
        return Status::Errorf("%s: bad magic 0x%08x", what, got_magic);
    if (bytes.size() - r.pos() !=
        uint64_t{payload_len} + kEnvelopeFooterBytes)
        return Status::Errorf(
            "%s: payload length %u does not match the envelope size",
            what, payload_len);
    env.payload = r.bytes(payload_len);
    env.crc = r.u32();
    env.crc_ok = crc32(env.payload.data(), env.payload.size()) == env.crc;
    return env;
}

}  // namespace util
}  // namespace snip
