/**
 * @file
 * Tests for the OTA model codec (core/model_codec.h): byte-identical
 * serialization round-trips, bitwise-identical runtime behaviour of
 * a shipped model, and — the safety half of the format — rejection
 * of truncated, bit-flipped, and crafted-malicious packages without
 * ever aborting. Includes the corruption fuzz smoke that tools/ci.sh
 * runs under sanitizers (gtest filter: ModelCodec*Fuzz*).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/model_codec.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "envelope_fuzz.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "util/rng.h"

namespace snip {
namespace core {
namespace {

/** Record + replay + PFI-select: a deployable model for @p game. */
SnipModel
buildModelFor(const std::string &game_name, double secs,
              uint64_t seed)
{
    auto game = games::makeGame(game_name);
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.record_events = true;
    cfg.seed = seed;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame(game_name);
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    SnipConfig scfg;
    scfg.overrides.force_keep = game->params().recommended_overrides;
    return buildSnipModel(profile, *game, scfg);
}

util::ByteBuffer
copyOf(const util::ByteBuffer &src)
{
    util::ByteBuffer out;
    out.putBytes(src.data().data(), src.size());
    return out;
}

/** Wrap @p payload in a well-formed envelope with a correct CRC. */
util::ByteBuffer
envelope(const util::ByteBuffer &payload,
         uint32_t version = kModelVersion)
{
    util::ByteBuffer pkg;
    util::sealEnvelope(kModelMagic, version, payload.data(), pkg);
    return pkg;
}

/**
 * Every decoded type's selection is its arena's: the same ids and
 * bytes, empty when the arena does not deploy the type.
 */
void
expectSelectionsFromArena(const SnipModel &m)
{
    ASSERT_TRUE(m.table != nullptr);
    for (const TypeModel &t : m.types) {
        EXPECT_EQ(t.selection.selected, m.table->selectedVector(t.type))
            << events::eventTypeName(t.type);
        EXPECT_EQ(t.selection.selected_bytes,
                  m.table->selectedBytes(t.type))
            << events::eventTypeName(t.type);
    }
}

/**
 * A resealed mutant that got past the decoder must still be safe to
 * run: one short SNIP session of the package's game on it.
 */
void
playShortSession(const SnipModel &model)
{
    auto game = games::makeGame("ab_evolution");
    SnipScheme scheme(model);
    SimulationConfig cfg;
    cfg.duration_s = 2.0;
    cfg.seed = 5;
    SessionResult res = runSession(*game, scheme, cfg);
    EXPECT_GT(res.stats.events, 0u);
}

TEST(ModelCodecTest, RoundTripIsByteIdentical)
{
    // The property the OTA pipeline relies on:
    // pack(unpack(pack(m))) == pack(m), byte for byte, across games
    // and seeds (canonical entry order makes this hold despite the
    // unordered bucket map).
    for (const char *game : {"colorphun", "greenwall"}) {
        for (uint64_t seed : {7ull, 4242ull}) {
            SnipModel model = buildModelFor(game, 20.0, seed);
            ASSERT_TRUE(model.table != nullptr);
            ASSERT_GT(model.table->entryCount(), 0u);

            util::ByteBuffer first;
            packModel(model, first);

            util::Result<SnipModel> back = unpackModel(first);
            ASSERT_TRUE(back.ok()) << back.status().message();

            util::ByteBuffer second;
            packModel(back.value(), second);
            EXPECT_EQ(first.data(), second.data())
                << game << " seed " << seed;
        }
    }
}

TEST(ModelCodecTest, RoundTripPreservesModelContents)
{
    SnipModel model = buildModelFor("ab_evolution", 20.0, 99);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    util::Result<SnipModel> back = unpackModel(pkg);
    ASSERT_TRUE(back.ok()) << back.status().message();

    const SnipModel &m = back.value();
    EXPECT_EQ(m.game, model.game);
    ASSERT_EQ(m.types.size(), model.types.size());
    for (size_t i = 0; i < m.types.size(); ++i) {
        EXPECT_EQ(m.types[i].type, model.types[i].type);
        EXPECT_EQ(m.types[i].records, model.types[i].records);
        EXPECT_EQ(m.types[i].selection.selected,
                  model.types[i].selection.selected);
        EXPECT_EQ(m.types[i].selection.selected_bytes,
                  model.types[i].selection.selected_bytes);
        EXPECT_EQ(m.types[i].selection.selected_error,
                  model.types[i].selection.selected_error);
    }
    ASSERT_TRUE(m.table != nullptr);
    EXPECT_EQ(m.table->entryCount(), model.table->entryCount());
    EXPECT_EQ(m.table->totalBytes(), model.table->totalBytes());
    EXPECT_EQ(m.selectedBytes(), model.selectedBytes());
}

TEST(ModelCodecTest, ShippedModelRunsBitwiseIdentical)
{
    // Deploying the unpacked model must behave exactly like keeping
    // the in-memory original: same short-circuits, same energy, to
    // the last bit.
    SnipModel original = buildModelFor("colorphun", 20.0, 1234);
    util::ByteBuffer pkg;
    packModel(original, pkg);
    util::Result<SnipModel> shipped = unpackModel(pkg);
    ASSERT_TRUE(shipped.ok()) << shipped.status().message();

    SimulationConfig cfg;
    cfg.duration_s = 20.0;
    cfg.seed = 777;

    auto game_a = games::makeGame("colorphun");
    SnipScheme scheme_a(original);
    SessionResult a = runSession(*game_a, scheme_a, cfg);

    auto game_b = games::makeGame("colorphun");
    SnipScheme scheme_b(shipped.value());
    SessionResult b = runSession(*game_b, scheme_b, cfg);

    EXPECT_GT(a.stats.shortcircuits, 0u);
    EXPECT_EQ(a.stats.events, b.stats.events);
    EXPECT_EQ(a.stats.shortcircuits, b.stats.shortcircuits);
    EXPECT_EQ(a.stats.instr_total, b.stats.instr_total);
    EXPECT_EQ(a.stats.instr_skipped, b.stats.instr_skipped);
    EXPECT_EQ(a.stats.lookup_bytes, b.stats.lookup_bytes);
    EXPECT_EQ(a.stats.lookup_candidates, b.stats.lookup_candidates);
    EXPECT_EQ(a.stats.erroneous_shortcircuits,
              b.stats.erroneous_shortcircuits);
    EXPECT_EQ(a.stats.output_fields_wrong,
              b.stats.output_fields_wrong);
    // Doubles compared with ==: bitwise-identical arithmetic.
    EXPECT_EQ(a.stats.ip_work_skipped, b.stats.ip_work_skipped);
    EXPECT_EQ(a.stats.lookup_energy_j, b.stats.lookup_energy_j);
    EXPECT_EQ(a.report.total(), b.report.total());
}

TEST(ModelCodecTest, SaveLoadRoundTrip)
{
    SnipModel model = buildModelFor("greenwall", 10.0, 5);
    std::string path =
        ::testing::TempDir() + "/snip_model_codec_test.snpm";
    ASSERT_TRUE(saveModel(model, path).ok());
    util::Result<SnipModel> loaded = loadModel(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(packedModelBytes(loaded.value()),
              packedModelBytes(model));
    std::remove(path.c_str());

    EXPECT_FALSE(loadModel("/nonexistent/dir/m.snpm").ok());
    EXPECT_FALSE(saveModel(model, "/nonexistent/dir/m.snpm").ok());
}

TEST(ModelCodecTest, InspectReportsHeaderAndCrc)
{
    SnipModel model = buildModelFor("greenwall", 10.0, 6);
    util::ByteBuffer pkg;
    packModel(model, pkg);

    PackageInfo info;
    ASSERT_TRUE(inspectPackage(pkg, &info).ok());
    EXPECT_EQ(info.version, kModelVersion);
    EXPECT_EQ(info.payload_bytes + 16u, pkg.size());
    EXPECT_TRUE(info.crc_ok);

    // Flip a payload byte: inspect still reads the header but flags
    // the CRC; unpack rejects.
    util::ByteBuffer bad = copyOf(pkg);
    const_cast<std::vector<uint8_t> &>(bad.data())[12 + 3] ^= 0x10;
    PackageInfo bad_info;
    ASSERT_TRUE(inspectPackage(bad, &bad_info).ok());
    EXPECT_FALSE(bad_info.crc_ok);
    util::Result<SnipModel> r = unpackModel(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("CRC"), std::string::npos);
}

TEST(ModelCodecTest, TruncationRejectedAtEveryPrefix)
{
    SnipModel model = buildModelFor("colorphun", 10.0, 8);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    ASSERT_GT(pkg.size(), 64u);

    for (size_t len = 0; len < pkg.size(); len += 1 + len / 9) {
        util::ByteBuffer cut;
        cut.putBytes(pkg.data().data(), len);
        util::Result<SnipModel> r = unpackModel(cut);
        EXPECT_FALSE(r.ok()) << "prefix " << len;
    }
}

TEST(ModelCodecTest, EveryBitFlipRejected)
{
    // Any single-bit flip lands in the magic, version, length,
    // payload (CRC-protected), or the CRC footer itself — all of
    // which unpack must detect.
    SnipModel model = buildModelFor("greenwall", 10.0, 9);
    util::ByteBuffer pkg;
    packModel(model, pkg);

    for (size_t pos = 0; pos < pkg.size(); pos += 1 + pos / 13) {
        for (uint8_t bit : {0, 4, 7}) {
            util::ByteBuffer flipped = copyOf(pkg);
            const_cast<std::vector<uint8_t> &>(
                flipped.data())[pos] ^=
                static_cast<uint8_t>(1u << bit);
            util::Result<SnipModel> r = unpackModel(flipped);
            EXPECT_FALSE(r.ok())
                << "byte " << pos << " bit " << int(bit);
        }
    }
}

TEST(ModelCodecTest, VersionMismatchRejected)
{
    // Only the current version is read: the previous version and a
    // future one behind a valid CRC are rejected by both entry points
    // with a Status naming the version.
    util::ByteBuffer payload;  // empty model payload
    payload.putString("");
    payload.putU32(0);  // schema fields
    payload.putU32(0);  // type models
    payload.putU8(0);   // no table

    util::ByteBuffer ok_pkg = envelope(payload);
    EXPECT_TRUE(unpackModel(ok_pkg).ok());

    for (uint32_t version : {2u, kModelVersion + 1}) {
        SCOPED_TRACE(version);
        util::ByteBuffer pkg = envelope(payload, version);
        util::Result<SnipModel> r = unpackModel(pkg);
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.status().message().find(
                      "unsupported version " + std::to_string(version)),
                  std::string::npos)
            << r.status().message();
        util::Result<SnipModel> dep =
            deployModel(std::make_shared<util::ByteBuffer>(copyOf(pkg)));
        ASSERT_FALSE(dep.ok());
        EXPECT_EQ(dep.status().message(), r.status().message());
    }
}

TEST(ModelCodecTest, ValidCrcBadContentRejected)
{
    // Integrity checks passing must not imply acceptance: a payload
    // with a correct CRC but malformed content (here: an event type
    // beyond the enum range) is still rejected.
    util::ByteBuffer payload;
    payload.putString("g");
    payload.putU32(1);  // one schema field
    payload.putString("f");
    payload.putU8(0);   // input side
    payload.putU8(0);
    payload.putU32(4);
    payload.putU32(1);    // one type model
    payload.putU8(0xee);  // invalid event type
    util::ByteBuffer pkg = envelope(payload);
    util::Result<SnipModel> r = unpackModel(pkg);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("type"), std::string::npos);
}

TEST(ModelCodecTest, TrailingPayloadBytesRejected)
{
    util::ByteBuffer payload;
    payload.putString("");
    payload.putU32(0);
    payload.putU32(0);
    payload.putU8(0);
    payload.putU32(0xabadcafe);  // junk past a complete payload
    util::ByteBuffer pkg = envelope(payload);
    util::Result<SnipModel> r = unpackModel(pkg);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("trailing"),
              std::string::npos);
}

TEST(ModelCodecTest, GarbageCountsDoNotOverAllocate)
{
    // A CRC-correct payload claiming 2^32-1 schema fields must be
    // rejected by the remaining-bytes bound, not by reserving GBs.
    util::ByteBuffer payload;
    payload.putString("g");
    payload.putU32(0xffffffffu);
    util::ByteBuffer pkg = envelope(payload);
    util::Result<SnipModel> r = unpackModel(pkg);
    EXPECT_FALSE(r.ok());
}

TEST(ModelCodecTest, RejectedPackageFallsBackToBaseline)
{
    // The deploy contract: a corrupt package yields an error — the
    // device keeps running at baseline (full execution, zero
    // short-circuits), it never crashes or ships a garbage table.
    SnipModel model = buildModelFor("colorphun", 10.0, 11);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    util::ByteBuffer cut;
    cut.putBytes(pkg.data().data(), pkg.size() / 2);

    util::Result<SnipModel> shipped = unpackModel(cut);
    ASSERT_FALSE(shipped.ok());

    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 10.0;
    cfg.seed = 11;
    SessionResult res = runSession(*game, baseline, cfg);
    EXPECT_GT(res.stats.events, 0u);
    EXPECT_EQ(res.stats.shortcircuits, 0u);
}

TEST(ModelCodecTest, V1PackageRejected)
{
    // Only the current version is read: a version-1 package (the old
    // per-entry table wire format) behind a valid CRC is rejected by
    // both the server-side reader and the device-side deploy, with a
    // Status naming the version, like any other unsupported version.
    auto game = games::makeGame("colorphun");
    std::vector<events::FieldId> selected =
        game->necessaryInputIds(events::EventType::Touch);
    std::sort(selected.begin(), selected.end());
    util::Rng rng(31337);
    std::vector<games::HandlerExecution> recs;
    for (int i = 0; i < 8; ++i)
        recs.push_back(game->process(
            game->makeEvent(events::EventType::Touch, 0.0, rng)));

    util::ByteBuffer payload;
    payload.putString("colorphun");
    const events::FieldSchema &schema = game->schema();
    payload.putU32(static_cast<uint32_t>(schema.size()));
    for (const auto &d : schema.defs()) {
        payload.putString(d.name);
        payload.putU8(static_cast<uint8_t>(d.side));
        payload.putU8(d.side == events::FieldSide::Input
                          ? static_cast<uint8_t>(d.in_cat)
                          : static_cast<uint8_t>(d.out_cat));
        payload.putU32(d.size_bytes);
    }
    payload.putU32(0);  // no per-type metadata
    payload.putU8(1);   // has table
    payload.putU32(1);  // one deployed type
    payload.putU8(static_cast<uint8_t>(events::EventType::Touch));
    payload.putU32(static_cast<uint32_t>(selected.size()));
    for (events::FieldId fid : selected)
        payload.putU32(fid);
    payload.putU32(static_cast<uint32_t>(recs.size()));
    for (const auto &rec : recs) {
        payload.putU32(static_cast<uint32_t>(rec.inputs.size()));
        for (const auto &fv : rec.inputs) {
            payload.putU32(fv.id);
            payload.putU64(fv.value);
        }
        payload.putU32(static_cast<uint32_t>(rec.outputs.size()));
        for (const auto &fv : rec.outputs) {
            payload.putU32(fv.id);
            payload.putU64(fv.value);
        }
    }
    util::ByteBuffer pkg = envelope(payload, 1);

    util::Result<SnipModel> r = unpackModel(pkg);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unsupported version 1"),
              std::string::npos)
        << r.status().message();

    auto shared_pkg = std::make_shared<util::ByteBuffer>(copyOf(pkg));
    util::Result<SnipModel> dep = deployModel(shared_pkg);
    ASSERT_FALSE(dep.ok());
    EXPECT_NE(dep.status().message().find("unsupported version 1"),
              std::string::npos)
        << dep.status().message();
}

TEST(ModelCodecTest, TypeRecordOutsideArenaDecodesEmpty)
{
    // The arena is the one home of the selection: a resealed package
    // whose first type record names a type the arena does not deploy
    // decodes that record with an empty selection, keeps its records
    // and error, and the model's selected bytes are the arena's.
    SnipModel model = buildModelFor("colorphun", 10.0, 13);
    ASSERT_FALSE(model.types.empty());
    auto named = [&](events::EventType t) {
        for (const TypeModel &tm : model.types)
            if (tm.type == t)
                return true;
        return false;
    };
    int t = 0;
    while (t < events::kNumEventTypes &&
           (model.table->deployed(static_cast<events::EventType>(t)) ||
            named(static_cast<events::EventType>(t))))
        ++t;
    ASSERT_LT(t, events::kNumEventTypes);
    const auto absent = static_cast<events::EventType>(t);

    // The first type record follows the game name, the schema and the
    // type count.
    util::ByteBuffer head;
    head.putString(model.game);
    const events::FieldSchema &schema = model.table->schema();
    head.putU32(static_cast<uint32_t>(schema.size()));
    for (const auto &d : schema.defs()) {
        head.putString(d.name);
        head.putU8(0);
        head.putU8(0);
        head.putU32(d.size_bytes);
    }
    head.putU32(static_cast<uint32_t>(model.types.size()));
    util::ByteBuffer pkg;
    packModel(model, pkg);
    util::Result<util::Envelope> env =
        util::openEnvelope(pkg.data(), kModelMagic, "model");
    ASSERT_TRUE(env.ok()) << env.status().message();
    std::vector<uint8_t> payload(env.value().payload.begin(),
                                 env.value().payload.end());
    ASSERT_EQ(payload[head.size()],
              static_cast<uint8_t>(model.types[0].type));
    payload[head.size()] = static_cast<uint8_t>(absent);
    auto crafted = std::make_shared<util::ByteBuffer>();
    util::sealEnvelope(kModelMagic, kModelVersion, payload, *crafted);

    util::Result<SnipModel> r = deployModel(crafted);
    ASSERT_TRUE(r.ok()) << r.status().message();
    const SnipModel &m = r.value();
    ASSERT_EQ(m.types.size(), model.types.size());
    EXPECT_EQ(m.types[0].type, absent);
    EXPECT_TRUE(m.types[0].selection.selected.empty());
    EXPECT_EQ(m.types[0].selection.selected_bytes, 0u);
    EXPECT_EQ(m.types[0].records, model.types[0].records);
    EXPECT_EQ(m.types[0].selection.selected_error,
              model.types[0].selection.selected_error);
    expectSelectionsFromArena(m);

    uint64_t arena_bytes = 0;
    for (int k = 0; k < events::kNumEventTypes; ++k)
        arena_bytes +=
            m.table->selectedBytes(static_cast<events::EventType>(k));
    EXPECT_GT(arena_bytes, 0u);
    EXPECT_EQ(m.selectedBytes(), arena_bytes);
    EXPECT_EQ(m.selectedBytes(), model.selectedBytes());
}

TEST(ModelCodecTest, DeployModelZeroCopyRunsBitwiseIdentical)
{
    // Device-side deploy: the frozen arena is attached as a validated
    // view over the package bytes — no per-entry rebuild — and runs
    // bit-for-bit like the in-memory original.
    SnipModel original = buildModelFor("colorphun", 20.0, 4321);
    auto pkg = std::make_shared<util::ByteBuffer>();
    packModel(original, *pkg);

    util::Result<SnipModel> dep = deployModel(pkg);
    ASSERT_TRUE(dep.ok()) << dep.status().message();
    ASSERT_TRUE(dep.value().table != nullptr);
    EXPECT_TRUE(dep.value().table->zeroCopy());

    SimulationConfig cfg;
    cfg.duration_s = 20.0;
    cfg.seed = 888;

    auto game_a = games::makeGame("colorphun");
    SnipScheme scheme_a(original);
    SessionResult a = runSession(*game_a, scheme_a, cfg);

    auto game_b = games::makeGame("colorphun");
    SnipScheme scheme_b(dep.value());
    SessionResult b = runSession(*game_b, scheme_b, cfg);

    EXPECT_GT(a.stats.shortcircuits, 0u);
    EXPECT_EQ(a.stats.events, b.stats.events);
    EXPECT_EQ(a.stats.shortcircuits, b.stats.shortcircuits);
    EXPECT_EQ(a.stats.instr_skipped, b.stats.instr_skipped);
    EXPECT_EQ(a.stats.lookup_bytes, b.stats.lookup_bytes);
    EXPECT_EQ(a.stats.lookup_candidates, b.stats.lookup_candidates);
    EXPECT_EQ(a.stats.output_fields_wrong,
              b.stats.output_fields_wrong);
    EXPECT_EQ(a.report.total(), b.report.total());
}

TEST(ModelCodecTest, UnpackedModelOwnsItsBytes)
{
    // unpackModel deploys over its own copy of the bytes: the model
    // outlives the caller's buffer, even one overwritten first, and
    // plays bit for bit like deployModel over the same package.
    SnipModel original = buildModelFor("colorphun", 20.0, 2468);
    auto pkg = std::make_shared<util::ByteBuffer>();
    packModel(original, *pkg);

    util::Result<SnipModel> unpacked = [&] {
        auto source = std::make_unique<util::ByteBuffer>(copyOf(*pkg));
        util::Result<SnipModel> r = unpackModel(*source);
        auto &bytes =
            const_cast<std::vector<uint8_t> &>(source->data());
        std::fill(bytes.begin(), bytes.end(), uint8_t{0xa5});
        return r;
    }();
    ASSERT_TRUE(unpacked.ok()) << unpacked.status().message();
    ASSERT_TRUE(unpacked.value().table != nullptr);
    util::Result<SnipModel> deployed = deployModel(pkg);
    ASSERT_TRUE(deployed.ok()) << deployed.status().message();

    SimulationConfig cfg;
    cfg.duration_s = 20.0;
    cfg.seed = 999;
    auto game_a = games::makeGame("colorphun");
    SnipScheme scheme_a(unpacked.value());
    SessionResult a = runSession(*game_a, scheme_a, cfg);
    auto game_b = games::makeGame("colorphun");
    SnipScheme scheme_b(deployed.value());
    SessionResult b = runSession(*game_b, scheme_b, cfg);

    EXPECT_GT(a.stats.shortcircuits, 0u);
    // SessionStats is all 8-byte fields: memcmp is a bitwise compare.
    static_assert(sizeof(SessionStats) % 8 == 0);
    EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof(a.stats)), 0);
    const double ea = a.report.total(), eb = b.report.total();
    EXPECT_EQ(std::memcmp(&ea, &eb, sizeof(ea)), 0);
}

/**
 * unpackModel is deployModel over an owned copy of the bytes, so one
 * loop feeds every mutant to both and they must agree on accept/reject
 * and on the message. Random truncations and 1-8 byte corruptions come
 * back as clean errors; resealed payload mutants get past the CRC and
 * are rejected by the decoder or deploy a table that plays through
 * both entry points. @p iters mutants of an ab_evolution model trained
 * with @p model_seed, drawn from @p rng_seed: no aborts, no sanitizer
 * reports.
 */
void
fuzzBothEntryPoints(uint64_t model_seed, uint64_t rng_seed, size_t iters)
{
    SnipModel model = buildModelFor("ab_evolution", 15.0, model_seed);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    ASSERT_GT(pkg.size(), 32u);

    util::Rng rng(rng_seed);
    size_t behind_crc = 0;
    for (size_t i = 0; i < iters; ++i) {
        fuzz::Mutant m = fuzz::mutateEnvelope(pkg, kModelMagic, rng);
        util::Result<SnipModel> unpacked = unpackModel(m.bytes);
        util::Result<SnipModel> r = deployModel(
            std::make_shared<util::ByteBuffer>(std::move(m.bytes)));
        ASSERT_EQ(unpacked.ok(), r.ok()) << "iteration " << i;
        if (!r.ok()) {
            EXPECT_EQ(unpacked.status().message(), r.status().message())
                << "iteration " << i;
        }
        if (m.kind != fuzz::Mutation::Reseal) {
            // Multiple flips can land on the same byte and cancel
            // out; only a mutant that actually differs must be
            // rejected.
            EXPECT_EQ(r.ok(), !m.changed) << "iteration " << i;
        } else if (!r.ok()) {
            EXPECT_EQ(r.status().message().find("CRC mismatch"),
                      std::string::npos)
                << "iteration " << i;
            ++behind_crc;
        }
        if (r.ok()) {
            expectSelectionsFromArena(r.value());
            expectSelectionsFromArena(unpacked.value());
            playShortSession(r.value());
            playShortSession(unpacked.value());
        }
    }
    EXPECT_GT(behind_crc, 0u);
}

// Two seeds of the one loop above, SNIP_FUZZ_ITERS iterations each
// (default 64; tools/ci.sh cranks it up under asan).
TEST(ModelCodecTest, DeployModelCorruptionFuzz)
{
    fuzzBothEntryPoints(22, 0xdeb70cafeULL, fuzz::iterations(64));
}

TEST(ModelCodecTest, CorruptionFuzzSmoke)
{
    fuzzBothEntryPoints(21, 0xf022f022ULL, fuzz::iterations(64));
}

}  // namespace
}  // namespace core
}  // namespace snip
