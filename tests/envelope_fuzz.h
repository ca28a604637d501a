/**
 * @file
 * Seeded mutants of a sealed envelope (an SNPM package or an SNPD
 * patch, util/bytes.h) for the corruption fuzz tests. Truncations
 * and byte flips must be rejected by the envelope itself; payload
 * flips resealed with a correct CRC get past it and reach the
 * decoder behind it, which must still answer with a clean Status.
 */

#ifndef SNIP_TESTS_ENVELOPE_FUZZ_H
#define SNIP_TESTS_ENVELOPE_FUZZ_H

#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace snip {
namespace fuzz {

/** Fuzz iterations: SNIP_FUZZ_ITERS when set, else @p dflt. */
inline size_t
iterations(size_t dflt)
{
    if (const char *env = std::getenv("SNIP_FUZZ_ITERS"))
        return static_cast<size_t>(std::strtoull(env, nullptr, 10));
    return dflt;
}

enum class Mutation { Truncate, Flip, Reseal };

struct Mutant {
    Mutation kind;
    util::ByteBuffer bytes;
    /** The mutant's bytes differ from the original (flips can
     *  cancel out). */
    bool changed = false;
};

/**
 * One mutant of @p sealed, whose envelope magic is @p magic: a
 * truncation at a random prefix, 1-8 random byte flips anywhere, or
 * 1-8 flips inside the payload resealed under the original header.
 */
inline Mutant
mutateEnvelope(const util::ByteBuffer &sealed, uint32_t magic,
               util::Rng &rng)
{
    Mutant m{static_cast<Mutation>(rng.next() % 3), {}};
    if (m.kind == Mutation::Truncate) {
        m.bytes.putBytes(sealed.data().data(),
                         rng.next() % sealed.size());
        m.changed = true;
        return m;
    }
    std::vector<uint8_t> bytes = sealed.data();
    std::span<uint8_t> target(bytes);
    uint32_t version = 0;
    if (m.kind == Mutation::Reseal) {
        util::Result<util::Envelope> env =
            util::openEnvelope(sealed.data(), magic, "fuzz");
        version = env.value().version;
        target = target.subspan(util::kEnvelopeHeaderBytes,
                                env.value().payload.size());
    }
    size_t flips = 1 + rng.next() % 8;
    for (size_t f = 0; f < flips; ++f)
        target[rng.next() % target.size()] ^=
            static_cast<uint8_t>(1u + rng.next() % 255);
    if (m.kind == Mutation::Reseal)
        util::sealEnvelope(magic, version, target, m.bytes);
    else
        m.bytes.putBytes(bytes.data(), bytes.size());
    m.changed = m.bytes.data() != sealed.data();
    return m;
}

}  // namespace fuzz
}  // namespace snip

#endif  // SNIP_TESTS_ENVELOPE_FUZZ_H
