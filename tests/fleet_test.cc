/**
 * @file
 * Tests for the fleet backend (src/fleet): SNPD delta patches
 * (round-trip byte identity, corruption fuzz with the full-fetch
 * fallback — gtest filter Fleet*Fuzz* is the ci.sh asan stage),
 * federated aggregation (bitwise equality with the serial merge
 * chain at decode thread counts {1, 2, 8} — FleetAggregate* is the
 * ci.sh tsan stage), the versioned model registry (lineage,
 * idempotent publish, integrity rejection, persistence, loads of a
 * save truncated at every offset or with an edited epoch column),
 * and the cohort epoch-push simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "envelope_fuzz.h"
#include "fleet/aggregate.h"
#include "fleet/delta.h"
#include "fleet/fleet_sim.h"
#include "fleet/registry.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "trace/trace_log.h"
#include "util/rng.h"

namespace snip {
namespace fleet {
namespace {

util::ByteBuffer
copyOf(const util::ByteBuffer &src)
{
    util::ByteBuffer out;
    out.putBytes(src.data().data(), src.size());
    return out;
}

util::ByteBuffer
randomBuffer(util::Rng &rng, size_t len)
{
    util::ByteBuffer b;
    for (size_t i = 0; i < len; ++i)
        b.putU8(static_cast<uint8_t>(rng.next()));
    return b;
}

std::span<const uint8_t>
spanOf(const util::ByteBuffer &b)
{
    return std::span<const uint8_t>(b.data());
}

/** Record + replay + PFI-select: a deployable model for @p game. */
core::SnipModel
buildModelFor(const std::string &game_name, double secs,
              uint64_t seed)
{
    auto game = games::makeGame(game_name);
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.record_events = true;
    cfg.seed = seed;
    core::SessionResult res = core::runSession(*game, baseline, cfg);
    auto replica = games::makeGame(game_name);
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    core::SnipConfig scfg;
    scfg.overrides.force_keep = game->params().recommended_overrides;
    return core::buildSnipModel(profile, *game, scfg);
}

/** Packed SNPM package of @p model as a shared buffer. */
std::shared_ptr<util::ByteBuffer>
packageOf(const core::SnipModel &model)
{
    auto pkg = std::make_shared<util::ByteBuffer>();
    core::packModel(model, *pkg);
    return pkg;
}

/**
 * A fresh mkdtemp directory under the test temp dir, removed with
 * its contents when the test ends (pass or fail).
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
    {
        std::string tmpl = ::testing::TempDir() + tag + ".XXXXXX";
        if (::mkdtemp(tmpl.data()))
            path_ = tmpl;
    }
    ~ScratchDir()
    {
        std::error_code ec;
        if (!path_.empty())
            std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** Empty when mkdtemp failed. */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ------------------------------------------------------ delta (SNPD)

TEST(FleetDeltaTest, RoundTripRandomBuffers)
{
    // apply(diff(A, B), A) == B for assorted shapes: disjoint,
    // shared prefix/suffix, insertions in the middle, B shorter than
    // A, and tiny/empty endpoints.
    util::Rng rng(0x5d1ffULL);
    std::vector<std::pair<util::ByteBuffer, util::ByteBuffer>> cases;

    cases.emplace_back(randomBuffer(rng, 4096),
                       randomBuffer(rng, 4096));  // nothing shared
    {
        util::ByteBuffer a = randomBuffer(rng, 8192);
        util::ByteBuffer b = copyOf(a);  // identical
        cases.emplace_back(std::move(a), std::move(b));
    }
    {
        // Shared body with an insertion in the middle and a mutated
        // tail — the incremental-epoch shape.
        util::ByteBuffer a = randomBuffer(rng, 6000);
        util::ByteBuffer b;
        b.putBytes(a.data().data(), 2500);
        util::ByteBuffer mid = randomBuffer(rng, 333);
        b.putBytes(mid.data().data(), mid.size());
        b.putBytes(a.data().data() + 2500, 3000);
        util::ByteBuffer tail = randomBuffer(rng, 100);
        b.putBytes(tail.data().data(), tail.size());
        cases.emplace_back(std::move(a), std::move(b));
    }
    {
        util::ByteBuffer a = randomBuffer(rng, 5000);
        util::ByteBuffer b;  // target shrinks to a slice
        b.putBytes(a.data().data() + 1000, 2000);
        cases.emplace_back(std::move(a), std::move(b));
    }
    cases.emplace_back(util::ByteBuffer{}, randomBuffer(rng, 200));
    cases.emplace_back(randomBuffer(rng, 200), util::ByteBuffer{});
    cases.emplace_back(randomBuffer(rng, 7),
                       randomBuffer(rng, 5));  // below block size

    for (size_t i = 0; i < cases.size(); ++i) {
        const auto &[a, b] = cases[i];
        util::ByteBuffer patch;
        diffBytes(spanOf(a), spanOf(b), patch);
        util::Result<util::ByteBuffer> got =
            applyPatch(spanOf(a), patch);
        ASSERT_TRUE(got.ok()) << "case " << i << ": "
                              << got.status().message();
        EXPECT_EQ(got.value().data(), b.data()) << "case " << i;

        PatchInfo info;
        ASSERT_TRUE(inspectPatch(patch, &info).ok()) << "case " << i;
        EXPECT_EQ(info.src_bytes, a.size());
        EXPECT_EQ(info.tgt_bytes, b.size());
        EXPECT_EQ(info.copied_bytes + info.inserted_bytes, b.size());
    }
}

TEST(FleetDeltaTest, DeterministicPatchBytes)
{
    util::Rng rng(0x0d57ULL);
    util::ByteBuffer a = randomBuffer(rng, 3000);
    util::ByteBuffer b = randomBuffer(rng, 1000);
    b.putBytes(a.data().data(), 1500);
    util::ByteBuffer p1, p2;
    diffBytes(spanOf(a), spanOf(b), p1);
    diffBytes(spanOf(a), spanOf(b), p2);
    EXPECT_EQ(p1.data(), p2.data());
}

TEST(FleetDeltaTest, RoundTripRealEpochPackages)
{
    // Consecutive continuous-learning epochs share most of their
    // arena: the patch must reconstruct exactly AND be meaningfully
    // smaller than the full package.
    core::SnipModel m1 = buildModelFor("colorphun", 12.0, 31);
    core::SnipModel m2 = buildModelFor("colorphun", 16.0, 32);
    auto p1 = packageOf(m1);
    auto p2 = packageOf(m2);

    util::ByteBuffer patch;
    diffBytes(spanOf(*p1), spanOf(*p2), patch);
    util::Result<util::ByteBuffer> got =
        applyPatch(spanOf(*p1), patch);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().data(), p2->data());
}

TEST(FleetDeltaTest, RejectsWrongBase)
{
    util::Rng rng(0xbadba5eULL);
    util::ByteBuffer a = randomBuffer(rng, 2000);
    util::ByteBuffer b = randomBuffer(rng, 2000);
    util::ByteBuffer c = randomBuffer(rng, 2000);
    util::ByteBuffer d = randomBuffer(rng, 1000);
    util::ByteBuffer patch;
    diffBytes(spanOf(a), spanOf(b), patch);
    // Another length: the pinned source length catches it.
    EXPECT_FALSE(applyPatch(spanOf(d), patch).ok());
    // Same length, different bytes: the source CRC catches it.
    EXPECT_FALSE(applyPatch(spanOf(c), patch).ok());
}

TEST(FleetDeltaTest, CorruptionFuzzFallback)
{
    // Truncations, bit flips and resealed payload flips over the
    // patch: every mutant is cleanly rejected or (resealed only)
    // rebuilds exactly the pinned target, never a crash or a wrong
    // reconstruction, and the device receive path always comes back
    // with the exact target via the full-package fallback.
    size_t iters = fuzz::iterations(64);
    util::Rng rng(0xfa11bacULL);
    util::ByteBuffer base = randomBuffer(rng, 4000);
    util::ByteBuffer tgt;
    tgt.putBytes(base.data().data(), 3000);
    util::ByteBuffer extra = randomBuffer(rng, 500);
    tgt.putBytes(extra.data().data(), extra.size());

    util::ByteBuffer patch;
    diffBytes(spanOf(base), spanOf(tgt), patch);
    ASSERT_GT(patch.size(), 16u);

    size_t behind_crc = 0;
    for (size_t i = 0; i < iters; ++i) {
        fuzz::Mutant m = fuzz::mutateEnvelope(patch, kPatchMagic, rng);
        util::Result<util::ByteBuffer> direct =
            applyPatch(spanOf(base), m.bytes);
        if (m.kind != fuzz::Mutation::Reseal) {
            EXPECT_EQ(direct.ok(), !m.changed) << "iteration " << i;
        } else if (!direct.ok()) {
            EXPECT_EQ(direct.status().message().find("CRC mismatch"),
                      std::string::npos)
                << "iteration " << i;
            ++behind_crc;
        }
        if (direct.ok()) {
            EXPECT_EQ(direct.value().data(), tgt.data())
                << "iteration " << i;
        }

        bool used_delta = false;
        util::ByteBuffer got =
            fetchWithDelta(spanOf(base), m.bytes, tgt, &used_delta);
        EXPECT_EQ(used_delta, direct.ok()) << "iteration " << i;
        EXPECT_EQ(got.data(), tgt.data()) << "iteration " << i;
    }
    EXPECT_GT(behind_crc, 0u);
}

// --------------------------------------------------------- aggregation

TEST(FleetAggregateTest, MatchesSerialChainBitwise)
{
    // aggregateUploads at decode thread counts {1, 2, 8} freezes to
    // the exact arena bytes of a serial decode-and-merge chain over
    // the same uploads.
    const std::string game_name = "memory_game";
    core::SnipModel agreed = buildModelFor(game_name, 15.0, 41);

    constexpr size_t kUploads = 10;
    std::vector<util::ByteBuffer> uploads = recordUploadPayloads(
        game_name, agreed, kUploads, 0x51a9d5ULL, 5.0);
    ASSERT_EQ(uploads.size(), kUploads);

    // Serial reference: decode each upload, merge in upload order.
    core::MemoTable serial(*agreed.table);
    for (const auto &up : uploads) {
        util::Result<core::SnipModel> decoded = core::unpackModel(up);
        ASSERT_TRUE(decoded.ok()) << decoded.status().message();
        serial.mergeFrom(*decoded.value().table);
    }
    auto serial_frozen = serial.freeze();
    ASSERT_GT(serial_frozen->arenaSize(), 0u);

    for (unsigned threads : {1u, 2u, 8u}) {
        core::MemoTable dest(*agreed.table);
        AggregateConfig cfg;
        cfg.threads = threads;
        AggregateStats stats = aggregateUploads(dest, uploads, cfg);
        EXPECT_EQ(stats.uploads, kUploads);
        EXPECT_EQ(stats.dropped, 0u);

        auto frozen = dest.freeze();
        ASSERT_EQ(frozen->arenaSize(), serial_frozen->arenaSize())
            << threads << " threads";
        EXPECT_EQ(std::memcmp(frozen->arenaData(),
                              serial_frozen->arenaData(),
                              frozen->arenaSize()),
                  0)
            << threads << " threads";
    }
}

TEST(FleetAggregateTest, DropsCorruptUploadsLikeSerial)
{
    const std::string game_name = "memory_game";
    core::SnipModel agreed = buildModelFor(game_name, 12.0, 43);
    std::vector<util::ByteBuffer> uploads = recordUploadPayloads(
        game_name, agreed, 6, 0xc0bb1eULL, 4.0);

    // Corrupt two payloads; both pipelines must drop exactly those.
    for (size_t victim : {1u, 4u}) {
        auto &bytes = const_cast<std::vector<uint8_t> &>(
            uploads[victim].data());
        bytes[bytes.size() / 2] ^= 0x5a;
    }

    core::MemoTable serial(*agreed.table);
    for (const auto &up : uploads) {
        util::Result<core::SnipModel> decoded = core::unpackModel(up);
        if (decoded.ok())
            serial.mergeFrom(*decoded.value().table);
    }
    auto serial_frozen = serial.freeze();

    core::MemoTable dest(*agreed.table);
    AggregateStats stats = aggregateUploads(dest, uploads, {});
    EXPECT_EQ(stats.dropped, 2u);
    auto frozen = dest.freeze();
    ASSERT_EQ(frozen->arenaSize(), serial_frozen->arenaSize());
    EXPECT_EQ(std::memcmp(frozen->arenaData(),
                          serial_frozen->arenaData(),
                          frozen->arenaSize()),
              0);
}

// --------------------------------------------------------- registry

TEST(FleetRegistryTest, PublishLineageFetch)
{
    core::SnipModel m1 = buildModelFor("greenwall", 10.0, 51);
    core::SnipModel m2 = buildModelFor("greenwall", 14.0, 52);
    core::SnipModel m3 = buildModelFor("greenwall", 18.0, 53);

    ModelRegistry reg;
    auto v1 = reg.publish("greenwall", packageOf(m1));
    auto v2 = reg.publish("greenwall", packageOf(m2));
    auto v3 = reg.publish("greenwall", packageOf(m3));
    ASSERT_TRUE(v1.ok() && v2.ok() && v3.ok());
    EXPECT_EQ(reg.versionCount("greenwall"), 3u);

    // Auto-chained lineage: v3 -> v2 -> v1.
    const ModelVersion *head = reg.head("greenwall");
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->id, v3.value());
    EXPECT_EQ(head->parent, v2.value());
    EXPECT_EQ(head->epoch, 2u);

    auto chain = reg.lineage("greenwall", v3.value());
    ASSERT_TRUE(chain.ok());
    ASSERT_EQ(chain.value().size(), 3u);
    EXPECT_EQ(chain.value()[0], v3.value());
    EXPECT_EQ(chain.value()[2], v1.value());

    EXPECT_EQ(reg.behindHead("greenwall", 1)->id, v2.value());
    EXPECT_EQ(reg.behindHead("greenwall", 2)->id, v1.value());
    EXPECT_EQ(reg.behindHead("greenwall", 99), nullptr);

    // Fetch re-verifies and serves the exact bytes.
    auto fetched = reg.fetch("greenwall", v2.value());
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value()->data(), packageOf(m2)->data());

    EXPECT_EQ(reg.find("greenwall", 0xdeadULL), nullptr);
    EXPECT_FALSE(reg.fetch("greenwall", 0xdeadULL).ok());
    EXPECT_FALSE(reg.fetch("nope", v1.value()).ok());
}

TEST(FleetRegistryTest, IdempotentAndIntegrityChecked)
{
    core::SnipModel m = buildModelFor("greenwall", 10.0, 54);
    ModelRegistry reg;
    auto v1 = reg.publish("greenwall", packageOf(m));
    ASSERT_TRUE(v1.ok());
    // Identical bytes republished: same id, no new version.
    auto v1b = reg.publish("greenwall", packageOf(m));
    ASSERT_TRUE(v1b.ok());
    EXPECT_EQ(v1.value(), v1b.value());
    EXPECT_EQ(reg.versionCount("greenwall"), 1u);

    // A corrupt package is refused outright.
    auto bad = packageOf(m);
    const_cast<std::vector<uint8_t> &>(
        bad->data())[bad->size() / 2] ^= 0x40;
    EXPECT_FALSE(reg.publish("greenwall", bad).ok());
    EXPECT_EQ(reg.versionCount("greenwall"), 1u);

    // An unknown explicit parent is refused.
    core::SnipModel m2 = buildModelFor("greenwall", 12.0, 55);
    EXPECT_FALSE(
        reg.publish("greenwall", packageOf(m2), 0x12345ULL).ok());
    EXPECT_EQ(reg.versionCount("greenwall"), 1u);
}

TEST(FleetRegistryTest, DeltaMemoizedAndSaveLoadRoundTrip)
{
    core::SnipModel m1 = buildModelFor("colorphun", 10.0, 61);
    core::SnipModel m2 = buildModelFor("colorphun", 14.0, 62);
    ModelRegistry reg;
    auto v1 = reg.publish("colorphun", packageOf(m1));
    auto v2 = reg.publish("colorphun", packageOf(m2));
    ASSERT_TRUE(v1.ok() && v2.ok());

    auto d1 = reg.delta("colorphun", v1.value(), v2.value());
    auto d2 = reg.delta("colorphun", v1.value(), v2.value());
    ASSERT_TRUE(d1.ok() && d2.ok());
    EXPECT_EQ(d1.value().get(), d2.value().get());  // memoized

    // The patch upgrades v1's bytes to exactly v2's.
    auto got = applyPatch(
        std::span<const uint8_t>(
            reg.find("colorphun", v1.value())->package->data()),
        *d1.value());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().data(), packageOf(m2)->data());

    // Persist and reload: identical catalog, lineage intact.
    ScratchDir scratch("fleet_reg_rt");
    ASSERT_FALSE(scratch.path().empty());
    const std::string dir = scratch.path() + "/reg";
    ASSERT_TRUE(reg.saveDir(dir).ok());
    auto loaded = ModelRegistry::loadDir(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value().versionCount("colorphun"), 2u);
    const ModelVersion *head = loaded.value().head("colorphun");
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->id, v2.value());
    EXPECT_EQ(head->parent, v1.value());
    auto fetched = loaded.value().fetch("colorphun", v1.value());
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value()->data(), packageOf(m1)->data());
}

// A save that "crashed" mid-write leaves torn tmp files behind: the
// load must still see the last complete save, and the next save must
// replace both the index and the packages, consuming the tmp files.
TEST(FleetRegistryTest, TornSaveKeepsOldStateAndNextSaveReplacesIt)
{
    core::SnipModel m1 = buildModelFor("colorphun", 10.0, 81);
    core::SnipModel m2 = buildModelFor("colorphun", 14.0, 82);
    ModelRegistry reg;
    auto v1 = reg.publish("colorphun", packageOf(m1));
    ASSERT_TRUE(v1.ok());
    ScratchDir scratch("fleet_reg_torn");
    ASSERT_FALSE(scratch.path().empty());
    const std::string dir = scratch.path() + "/reg";
    ASSERT_TRUE(reg.saveDir(dir).ok());

    auto v2 = reg.publish("colorphun", packageOf(m2));
    ASSERT_TRUE(v2.ok());
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(v2.value()));
    const std::string torn_index = dir + "/index.txt.tmp";
    const std::string torn_pkg = dir + "/" + hex + ".snpm.tmp";
    for (const std::string &path : {torn_index, torn_pkg}) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("colorphun\t", f);  // cut off mid-line
        std::fclose(f);
    }

    auto old = ModelRegistry::loadDir(dir);
    ASSERT_TRUE(old.ok()) << old.status().message();
    EXPECT_EQ(old.value().versionCount("colorphun"), 1u);
    EXPECT_EQ(old.value().head("colorphun")->id, v1.value());

    ASSERT_TRUE(reg.saveDir(dir).ok());
    for (const std::string &path : {torn_index, torn_pkg}) {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_EQ(f, nullptr) << path;
        if (f)
            std::fclose(f);
    }
    auto now = ModelRegistry::loadDir(dir);
    ASSERT_TRUE(now.ok()) << now.status().message();
    EXPECT_EQ(now.value().versionCount("colorphun"), 2u);
    EXPECT_EQ(now.value().head("colorphun")->id, v2.value());
    auto fetched = now.value().fetch("colorphun", v2.value());
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value()->data(), packageOf(m2)->data());
}

// A crash that tears a saved file in place: the index and,
// separately, the head's package are truncated at every offset.
// loadDir must either fail cleanly or return a registry whose lineage
// is a prefix of the saved one, every version of which still fetches
// and unpacks. A cut package is always refused (its size and digest
// no longer match the index); the index's cuts at line ends yield
// every prefix from empty to whole.
TEST(FleetRegistryTest, TruncatedAtEveryOffset)
{
    const std::string game = "colorphun";
    ModelRegistry reg;
    std::vector<VersionId> saved;
    for (int e = 0; e < 3; ++e) {
        auto v = reg.publish(
            game, packageOf(buildModelFor(game, 10.0 + 2.0 * e, 91 + e)));
        ASSERT_TRUE(v.ok()) << v.status().message();
        saved.push_back(v.value());
    }
    ScratchDir scratch("fleet_reg_trunc");
    ASSERT_FALSE(scratch.path().empty());
    const std::string dir = scratch.path() + "/reg";
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(saved.back()));

    const std::string index = dir + "/index.txt";
    const std::string head_pkg = dir + "/" + hex + ".snpm";
    for (const std::string &path : {index, head_pkg}) {
        SCOPED_TRACE(path);
        ASSERT_TRUE(reg.saveDir(dir).ok());  // every file whole again
        std::error_code ec;
        uintmax_t size = std::filesystem::file_size(path, ec);
        ASSERT_FALSE(ec);
        std::vector<bool> prefix_seen(saved.size() + 1, false);
        for (uintmax_t off = size; off-- > 0;) {
            std::filesystem::resize_file(path, off, ec);
            ASSERT_FALSE(ec) << off;
            auto loaded = ModelRegistry::loadDir(dir);
            if (!loaded.ok())
                continue;
            const ModelRegistry &got = loaded.value();
            const std::vector<ModelVersion> &vs = got.versions(game);
            ASSERT_LE(vs.size(), saved.size()) << off;
            prefix_seen[vs.size()] = true;
            for (size_t i = 0; i < vs.size(); ++i) {
                ASSERT_EQ(vs[i].id, saved[i]) << off;
                auto fetched = got.fetch(game, vs[i].id);
                ASSERT_TRUE(fetched.ok()) << off;
                EXPECT_EQ(fetched.value()->data(),
                          reg.find(game, saved[i])->package->data());
                EXPECT_TRUE(core::unpackModel(*fetched.value()).ok())
                    << off;
            }
            if (!vs.empty()) {
                auto lineage = got.lineage(game, vs.back().id);
                ASSERT_TRUE(lineage.ok()) << off;
                EXPECT_EQ(lineage.value().size(), vs.size()) << off;
            }
        }
        bool is_index = path == index;
        for (size_t n = 0; n <= saved.size(); ++n)
            EXPECT_EQ(prefix_seen[n], is_index) << n << " versions";
    }
}

// The epoch column must agree with the lineage: loadDir republishes
// the lines in order, and an index line whose epoch differs from the
// one that assigns (an edited or corrupt index) is refused, naming
// the line.
TEST(FleetRegistryTest, EpochColumnMustMatchLineage)
{
    const std::string game = "colorphun";
    ModelRegistry reg;
    for (int e = 0; e < 3; ++e)
        ASSERT_TRUE(reg.publish(game, packageOf(buildModelFor(
                                          game, 10.0 + 2.0 * e, 71 + e)))
                        .ok());
    ScratchDir scratch("fleet_reg_epoch");
    ASSERT_FALSE(scratch.path().empty());
    const std::string dir = scratch.path() + "/reg";
    ASSERT_TRUE(reg.saveDir(dir).ok());
    ASSERT_TRUE(ModelRegistry::loadDir(dir).ok());

    // Line 2 holds epoch 1; rewrite its epoch column (the fourth
    // tab-separated field) to 2.
    const std::string index = dir + "/index.txt";
    std::vector<std::string> lines;
    {
        std::ifstream in(index);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 3u);
    size_t col = 0;
    for (int tab = 0; tab < 3; ++tab)
        col = lines[1].find('\t', col) + 1;
    ASSERT_EQ(lines[1].substr(col, 2), "1\t");
    lines[1][col] = '2';
    {
        std::ofstream out(index, std::ios::trunc);
        for (const std::string &line : lines)
            out << line << '\n';
    }

    auto loaded = ModelRegistry::loadDir(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("line 2"),
              std::string::npos)
        << loaded.status().message();
}

// Index ids must read exactly as saveDir writes them (16 lowercase
// hex digits), and a package path is built from the parsed id: a line
// naming "../x", a short or long id or trailing garbage is refused
// before any package file is opened, even when a file of that name
// holds a valid package.
TEST(FleetRegistryTest, IndexIdsMustBeSixteenLowercaseHexDigits)
{
    core::SnipModel m = buildModelFor("colorphun", 10.0, 91);
    auto pkg = packageOf(m);
    ModelRegistry reg;
    auto v = reg.publish("colorphun", pkg);
    ASSERT_TRUE(v.ok());
    ScratchDir scratch("fleet_reg_ids");
    ASSERT_FALSE(scratch.path().empty());
    const std::string dir = scratch.path() + "/reg";
    ASSERT_TRUE(reg.saveDir(dir).ok());

    char id[17];
    std::snprintf(id, sizeof id, "%016llx",
                  static_cast<unsigned long long>(v.value()));
    const std::string root(16, '0');
    auto write_index = [&](const std::string &id_tok,
                           const std::string &parent_tok) {
        std::FILE *f = std::fopen((dir + "/index.txt").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fprintf(f, "colorphun\t%s\t%s\t0\t%zu\n", id_tok.c_str(),
                     parent_tok.c_str(), pkg->size());
        std::fclose(f);
    };
    const std::string bad[] = {"../x", std::string(id).substr(1),
                               std::string(id) + "0",
                               "0123456789abcdefzz", "0123456789ABCDEF"};
    for (const std::string &tok : bad) {
        SCOPED_TRACE(tok);
        // The file the raw token names holds the valid package.
        ASSERT_TRUE(
            trace::saveBuffer(*pkg, dir + "/" + tok + ".snpm").ok());
        for (bool as_parent : {false, true}) {
            write_index(as_parent ? id : tok, as_parent ? tok : root);
            auto loaded = ModelRegistry::loadDir(dir);
            ASSERT_FALSE(loaded.ok());
            EXPECT_NE(loaded.status().message().find(
                          "not 16 lowercase hex digits"),
                      std::string::npos)
                << loaded.status().message();
        }
    }

    write_index(id, root);
    auto loaded = ModelRegistry::loadDir(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    ASSERT_NE(loaded.value().head("colorphun"), nullptr);
    EXPECT_EQ(loaded.value().head("colorphun")->id, v.value());
}

// ------------------------------------------------------- epoch push

TEST(FleetSimTest, PushEpochCohortReport)
{
    const std::string game_name = "memory_game";
    // Four publishes, so the stable, slow and lagging rings (1, 2 and
    // 3 versions behind the head) all hold a base.
    ModelRegistry reg;
    for (int e = 0; e < 4; ++e) {
        core::SnipModel m =
            buildModelFor(game_name, 8.0 + 4.0 * e, 70 + e);
        ASSERT_TRUE(reg.publish(game_name, packageOf(m)).ok());
    }

    FleetSimConfig cfg;
    cfg.game = game_name;
    cfg.devices = 1000000;
    cfg.eval_seconds = 5.0;
    auto pushed = pushEpoch(reg, cfg);
    ASSERT_TRUE(pushed.ok()) << pushed.status().message();
    const EpochPushReport &r = pushed.value();

    EXPECT_EQ(r.head, reg.head(game_name)->id);
    const std::vector<CohortSpec> rings = defaultCohorts();
    ASSERT_EQ(r.cohorts.size(), rings.size());
    uint64_t devices = 0;
    for (size_t i = 0; i < rings.size(); ++i) {
        EXPECT_EQ(r.cohorts[i].name, rings[i].name);
        devices += r.cohorts[i].devices;
    }
    EXPECT_EQ(devices, cfg.devices);

    // The delta rings ship patches; the fresh ring full-fetches.
    // Fleet-wide, delta OTA strictly beats full.
    for (size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(r.cohorts[i].name);
        EXPECT_TRUE(r.cohorts[i].used_delta);
        EXPECT_GT(r.cohorts[i].patch_bytes, 0u);
        EXPECT_LT(r.cohorts[i].delta_bytes, r.cohorts[i].full_bytes);
    }
    const CohortReport &fresh = r.cohorts.back();
    EXPECT_EQ(fresh.name, "fresh");
    EXPECT_FALSE(fresh.used_delta);
    EXPECT_EQ(fresh.delta_bytes, fresh.full_bytes);
    EXPECT_LT(r.delta_bytes, r.full_bytes);
    EXPECT_EQ(r.fallbacks, 0u);

    // Hit rates are rates; the no-model ring misses everything.
    for (const CohortReport &c : r.cohorts) {
        EXPECT_GE(c.hit_rate, 0.0);
        EXPECT_LE(c.hit_rate, 1.0);
    }
    EXPECT_EQ(fresh.hit_rate, 0.0);
    EXPECT_GE(r.staleness_skew, 0.0);

    FleetSimConfig unknown;
    unknown.game = "nope";
    EXPECT_FALSE(pushEpoch(reg, unknown).ok());
}

}  // namespace
}  // namespace fleet
}  // namespace snip
