#include "util/crc32.h"

#include <array>

#include "util/bytes.h"

namespace snip {
namespace util {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

/**
 * Slicing-by-8 tables: kTables[0] is the bytewise table, and
 * kTables[k][b] is the CRC state of byte b followed by k zero bytes,
 * so eight table reads fold eight input bytes at once. Portable on
 * purpose: the SSE4.2 crc32 instruction computes CRC-32C, a
 * different polynomial, and would change every checksum.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = makeTables();

}  // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = readU32(p) ^ c;
        uint32_t hi = readU32(p + 4);
        c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

}  // namespace util
}  // namespace snip
