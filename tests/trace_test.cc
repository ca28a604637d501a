/**
 * @file
 * Tests for the trace layer: event recording, offline replay
 * fidelity (the emulator must reproduce the on-device execution
 * exactly), serialization round-trips, and profile statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/model_codec.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "fleet/delta.h"
#include "games/registry.h"
#include "trace/columnar_log.h"
#include "trace/field_stats.h"
#include "trace/recorder.h"
#include "trace/trace_log.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace trace {
namespace {

/** A short recorded baseline session of the given game. */
core::SessionResult
record(const std::string &game_name, games::Game &game,
       double secs = 20.0)
{
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.record_events = true;
    cfg.seed = 4242;
    (void)game_name;
    return core::runSession(game, baseline, cfg);
}

TEST(EventRecorderTest, CapturesEventsInOrder)
{
    EventRecorder rec("g");
    events::EventObject a, b;
    a.seq = 1;
    b.seq = 2;
    rec.onEvent(a);
    rec.onEvent(b);
    ASSERT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.trace().events[0].seq, 1u);
    EXPECT_EQ(rec.trace().events[1].seq, 2u);
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
}

TEST(ReplayerTest, ReplayMatchesLiveExecution)
{
    // The cloud replay must reproduce the on-device execution
    // record-for-record: same inputs, outputs, and costs.
    auto game = games::makeGame("colorphun");
    core::SessionResult res = record("colorphun", *game);
    ASSERT_GT(res.trace.events.size(), 20u);

    auto replica = games::makeGame("colorphun");
    Profile profile = Replayer::replay(res.trace, *replica);
    ASSERT_EQ(profile.records.size(), res.trace.events.size());

    // Re-replay gives identical records (determinism).
    auto replica2 = games::makeGame("colorphun");
    Profile again = Replayer::replay(res.trace, *replica2);
    ASSERT_EQ(again.records.size(), profile.records.size());
    for (size_t i = 0; i < profile.records.size(); ++i) {
        EXPECT_EQ(profile.records[i].inputs, again.records[i].inputs);
        EXPECT_EQ(profile.records[i].outputs,
                  again.records[i].outputs);
        EXPECT_EQ(profile.records[i].cpu_instructions,
                  again.records[i].cpu_instructions);
    }
}

TEST(ProfileTest, HelpersAndTruncation)
{
    auto game = games::makeGame("ab_evolution");
    core::SessionResult res = record("ab_evolution", *game);
    auto replica = games::makeGame("ab_evolution");
    Profile p = Replayer::replay(res.trace, *replica);

    EXPECT_GT(p.totalInstructions(), 0u);
    auto types = p.typesPresent();
    EXPECT_GE(types.size(), 2u);
    size_t sum = 0;
    for (auto t : types)
        sum += p.ofType(t).size();
    EXPECT_EQ(sum, p.records.size());

    Profile t10 = p.truncated(10);
    EXPECT_EQ(t10.records.size(), 10u);
    Profile huge = p.truncated(1u << 30);
    EXPECT_EQ(huge.records.size(), p.records.size());

    size_t before = p.records.size();
    p.append(t10);
    EXPECT_EQ(p.records.size(), before + 10);
}

TEST(TraceLogTest, EventTraceRoundTrip)
{
    auto game = games::makeGame("greenwall");
    core::SessionResult res = record("greenwall", *game, 10.0);

    util::ByteBuffer buf;
    encodeEventTrace(res.trace, buf);
    EventTrace back;
    ASSERT_TRUE(decodeEventTrace(buf, &back).ok());
    EXPECT_EQ(back.game, res.trace.game);
    ASSERT_EQ(back.events.size(), res.trace.events.size());
    for (size_t i = 0; i < back.events.size(); ++i) {
        EXPECT_EQ(back.events[i].type, res.trace.events[i].type);
        EXPECT_EQ(back.events[i].seq, res.trace.events[i].seq);
        EXPECT_EQ(back.events[i].fields, res.trace.events[i].fields);
    }
}

TEST(TraceLogTest, DecodeIsStateless)
{
    // Decoders read const bytes through their own ByteReader, so one
    // buffer decodes the same way every time, and one package or
    // patch serves any number of readers in turn.
    auto game = games::makeGame("greenwall");
    core::SessionResult res = record("greenwall", *game, 10.0);
    util::ByteBuffer events;
    encodeEventTrace(res.trace, events);
    const util::ByteBuffer &upload = events;

    EventTrace first, second;
    ASSERT_TRUE(decodeEventTrace(upload, &first).ok());
    util::Status st = decodeEventTrace(upload, &second);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(first.game, second.game);
    ASSERT_EQ(first.events.size(), res.trace.events.size());
    ASSERT_EQ(second.events.size(), first.events.size());
    for (size_t i = 0; i < first.events.size(); ++i) {
        EXPECT_EQ(first.events[i].type, second.events[i].type);
        EXPECT_EQ(first.events[i].seq, second.events[i].seq);
        EXPECT_EQ(first.events[i].timestamp,
                  second.events[i].timestamp);
        EXPECT_EQ(first.events[i].fields, second.events[i].fields);
    }

    // SNPM: inspect, then unpack the same buffer.
    auto replica = games::makeGame("greenwall");
    Profile profile = Replayer::replay(res.trace, *replica);
    core::SnipConfig scfg;
    scfg.overrides.force_keep = game->params().recommended_overrides;
    util::ByteBuffer packed;
    core::packModel(core::buildSnipModel(profile, *game, scfg), packed);
    const util::ByteBuffer &pkg = packed;
    core::PackageInfo info;
    ASSERT_TRUE(core::inspectPackage(pkg, &info).ok());
    EXPECT_TRUE(info.crc_ok);
    util::Result<core::SnipModel> unpacked = core::unpackModel(pkg);
    ASSERT_TRUE(unpacked.ok()) << unpacked.status().message();
    util::ByteBuffer repacked;
    core::packModel(unpacked.value(), repacked);
    EXPECT_EQ(repacked.data(), pkg.data());

    // SNPD: apply one const patch twice.
    util::ByteBuffer grown;
    grown.putBytes(pkg.data().data(), pkg.size() / 2);
    grown.putString("epoch n+1");
    grown.putBytes(pkg.data().data() + pkg.size() / 2,
                   pkg.size() - pkg.size() / 2);
    util::ByteBuffer diffed;
    fleet::diffBytes(pkg.data(), grown.data(), diffed);
    const util::ByteBuffer &patch = diffed;
    for (int pass = 0; pass < 2; ++pass) {
        util::Result<util::ByteBuffer> got =
            fleet::applyPatch(pkg.data(), patch);
        ASSERT_TRUE(got.ok()) << "pass " << pass << ": "
                              << got.status().message();
        EXPECT_EQ(got.value().data(), grown.data()) << "pass " << pass;
    }
}

TEST(TraceLogTest, BadMagicReturnsError)
{
    util::ByteBuffer buf;
    buf.putU32(0xdeadbeef);
    buf.putU32(1);
    EventTrace trace;
    util::Status st = decodeEventTrace(buf, &trace);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("magic"), std::string::npos);
}

TEST(TraceLogTest, UnsupportedVersionReturnsError)
{
    auto game = games::makeGame("greenwall");
    core::SessionResult res = record("greenwall", *game, 5.0);
    util::ByteBuffer buf;
    encodeEventTrace(res.trace, buf);

    // Bump the version word (bytes 4..7) to an unknown value.
    util::ByteBuffer bumped;
    const auto &raw = buf.data();
    for (size_t i = 0; i < raw.size(); ++i)
        bumped.putU8(i == 4 ? raw[i] + 1 : raw[i]);
    EventTrace trace;
    util::Status st = decodeEventTrace(bumped, &trace);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST(TraceLogTest, TruncatedBuffersReturnErrors)
{
    // Every strict prefix of a valid encoding must be rejected with
    // an error Status — never a panic/abort.
    auto game = games::makeGame("greenwall");
    core::SessionResult res = record("greenwall", *game, 5.0);
    util::ByteBuffer full;
    encodeEventTrace(res.trace, full);

    ASSERT_GT(full.size(), 64u);
    for (size_t len = 0; len < full.size(); len += 1 + len / 7) {
        util::ByteBuffer cut;
        cut.putBytes(full.data().data(), len);
        EventTrace trace;
        EXPECT_FALSE(decodeEventTrace(cut, &trace).ok())
            << "prefix " << len;
    }
}

TEST(TraceLogTest, BitFlippedBuffersNeverAbort)
{
    // The trace format carries no checksum, so a flipped value byte
    // may decode to different content — but a flip must never crash
    // or abort, and flips in structure (counts, types) must come
    // back as clean errors.
    auto game = games::makeGame("colorphun");
    core::SessionResult res = record("colorphun", *game, 5.0);
    util::ByteBuffer buf;
    encodeEventTrace(res.trace, buf);

    for (size_t pos = 0; pos < buf.size(); pos += 1 + pos / 11) {
        for (uint8_t bit : {0, 3, 7}) {
            util::ByteBuffer flipped;
            flipped.putBytes(buf.data().data(), buf.size());
            const_cast<std::vector<uint8_t> &>(flipped.data())[pos] ^=
                static_cast<uint8_t>(1u << bit);
            EventTrace trace;
            util::Status st = decodeEventTrace(flipped, &trace);
            if (st.ok()) {
                EXPECT_EQ(trace.events.size(),
                          res.trace.events.size());
            }
        }
    }
}

TEST(TraceLogTest, GarbageCountDoesNotOverAllocate)
{
    // A corrupt event count in the header must be rejected by the
    // remaining-bytes bound instead of reserving gigabytes.
    util::ByteBuffer buf;
    buf.putU32(0x534e5045);  // event-trace magic
    buf.putU32(1);           // version
    buf.putString("g");
    buf.putU32(0xffffffffu);  // impossible event count
    EventTrace trace;
    EXPECT_FALSE(decodeEventTrace(buf, &trace).ok());
}

TEST(TraceLogTest, FileSaveLoadRoundTrip)
{
    util::ByteBuffer buf;
    buf.putString("snip test payload");
    std::string path = ::testing::TempDir() + "/snip_trace_test.bin";
    ASSERT_TRUE(saveBuffer(buf, path).ok());
    util::ByteBuffer loaded;
    ASSERT_TRUE(loadBuffer(path, &loaded).ok());
    EXPECT_EQ(loaded.data(), buf.data());
    std::remove(path.c_str());
}

// Saves go through a fsync'd tmp file and a rename: a torn tmp file
// from a crashed save is invisible to loads, and the next save
// replaces it along with the target.
TEST(TraceLogTest, TornTmpFileKeepsOldStateAndNextSaveReplacesIt)
{
    std::string path = ::testing::TempDir() + "/snip_trace_torn.bin";
    util::ByteBuffer old_buf, new_buf;
    old_buf.putString("old payload");
    new_buf.putString("new payload, longer than the old one");
    ASSERT_TRUE(saveBuffer(old_buf, path).ok());

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(new_buf.data().data(), 1, 5, f);  // torn: 5 bytes
    std::fclose(f);

    util::ByteBuffer loaded;
    ASSERT_TRUE(loadBuffer(path, &loaded).ok());
    EXPECT_EQ(loaded.data(), old_buf.data());

    ASSERT_TRUE(saveBuffer(new_buf, path).ok());
    ASSERT_TRUE(loadBuffer(path, &loaded).ok());
    EXPECT_EQ(loaded.data(), new_buf.data());
    f = std::fopen(tmp.c_str(), "rb");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
    std::remove(path.c_str());
}

TEST(TraceLogTest, FileErrorsReturnStatus)
{
    util::ByteBuffer buf;
    util::Status st =
        loadBuffer("/nonexistent/dir/snip.bin", &buf);
    EXPECT_FALSE(st.ok());
    buf.putU8(1);
    st = saveBuffer(buf, "/nonexistent/dir/snip.bin");
    EXPECT_FALSE(st.ok());
}

TEST(FieldStatisticsTest, CategoriesAccounted)
{
    auto game = games::makeGame("ab_evolution");
    core::SessionResult res = record("ab_evolution", *game, 30.0);
    auto replica = games::makeGame("ab_evolution");
    Profile p = Replayer::replay(res.trace, *replica);

    FieldStatistics stats(p, game->schema());
    EXPECT_EQ(stats.recordCount(), p.records.size());
    EXPECT_NEAR(stats.inEventPresence(), 1.0, 1e-9);
    EXPECT_GT(stats.inHistoryPresence(), 0.5);
    EXPECT_GT(stats.uselessFraction(), 0.05);
    EXPECT_LT(stats.uselessFraction(), 0.7);
    // In.Event sizes must be within the paper's 2-640 B envelope.
    EXPECT_GE(stats.inEventSizes().minValue(), 2.0);
    EXPECT_LE(stats.inEventSizes().maxValue(), 640.0);
}

TEST(FieldStatisticsTest, RecordBytesSplitsByCategory)
{
    auto game = games::makeGame("colorphun");
    core::SessionResult res = record("colorphun", *game, 10.0);
    auto replica = games::makeGame("colorphun");
    Profile p = Replayer::replay(res.trace, *replica);
    ASSERT_FALSE(p.records.empty());

    for (const auto &rec : p.records) {
        RecordBytes rb = recordBytes(rec, game->schema());
        EXPECT_EQ(rb.inputs(),
                  game->schema().bytesOf(rec.inputs));
        EXPECT_EQ(rb.outputs(),
                  game->schema().bytesOf(rec.outputs));
        EXPECT_EQ(rb.in_event,
                  events::eventObjectBytes(rec.type));
    }
}

TEST(DynamicEnergy, MonotoneInWork)
{
    soc::EnergyModel m = soc::EnergyModel::snapdragon821();
    games::HandlerExecution small, big;
    small.cpu_instructions = 1'000'000;
    small.memory_bytes = 1000;
    big = small;
    big.cpu_instructions = 10'000'000;
    big.ip_calls.push_back({soc::IpKind::Gpu, 5.0});
    EXPECT_GT(dynamicEnergyOf(big, m), dynamicEnergyOf(small, m));
    EXPECT_GT(dynamicEnergyOf(small, m), 0.0);
}

// ------------------------------------- Training sections (ColumnarLog)

/** Replay a short session into a profile. */
Profile
shortProfile(const std::string &game_name, double secs = 20.0)
{
    auto game = games::makeGame(game_name);
    core::SessionResult res = record(game_name, *game, secs);
    return Replayer::replay(res.trace, *game);
}

/**
 * Read the first value of every feature column and every label and
 * weight of each section: on a corrupt buffer that validation let
 * through, every read must still land in bounds (asan checks).
 */
void
touchSections(const ColumnarLog &log)
{
    uint64_t sink = 0;
    for (events::EventType t : log.trainingTypes()) {
        const auto *tc = log.training(t);
        if (tc->nrows == 0)
            continue;
        for (uint32_t f = 0; f < tc->nfeat; ++f)
            sink ^= tc->feat_cols[f * tc->nrows];
        for (uint64_t r = 0; r < tc->nrows; ++r)
            sink ^= tc->labels[r] + tc->weights[r];
    }
    (void)sink;
}

/** Overwrite the u32 at @p off of @p bytes. */
void
putU32At(std::vector<uint8_t> *bytes, size_t off, uint32_t v)
{
    std::memcpy(bytes->data() + off, &v, 4);
}

// Saved to disk and opened again, a training file comes back as an
// mmap'd zero-copy view holding the same sections, byte for byte.
TEST(ColumnarLogTest, FileSaveOpenRoundTrip)
{
    Profile profile = shortProfile("greenwall", 10.0);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ColumnarLog::encodeTraining(profile, &bytes).ok());
    auto mem = ColumnarLog::attach(bytes.data(), bytes.size(), nullptr);
    ASSERT_TRUE(mem.ok()) << mem.status().message();

    std::string path = ::testing::TempDir() + "/snip_columnar.snct";
    ASSERT_TRUE(ColumnarLog::save(bytes, path).ok());
    auto log = ColumnarLog::open(path);
    ASSERT_TRUE(log.ok()) << log.status().message();
    EXPECT_TRUE(log.value()->zeroCopy());  // mmap'd view
    EXPECT_TRUE(log.value()->mmapBacked());
    EXPECT_EQ(log.value()->game(), profile.game);
    ASSERT_EQ(log.value()->trainingTypes(), mem.value()->trainingTypes());
    for (events::EventType t : mem.value()->trainingTypes()) {
        const auto *want = mem.value()->training(t);
        const auto *got = log.value()->training(t);
        ASSERT_EQ(got->nrows, want->nrows);
        ASSERT_EQ(got->nfeat, want->nfeat);
        ASSERT_EQ(got->nout, want->nout);
        EXPECT_EQ(0, std::memcmp(got->feat_ids, want->feat_ids,
                                 want->nfeat * 4));
        EXPECT_EQ(0, std::memcmp(got->feat_cols, want->feat_cols,
                                 want->nfeat * want->nrows * 8));
        EXPECT_EQ(0, std::memcmp(got->labels, want->labels,
                                 want->nrows * 8));
        EXPECT_EQ(0, std::memcmp(got->weights, want->weights,
                                 want->nrows * 8));
        EXPECT_EQ(0, std::memcmp(got->out_cols, want->out_cols,
                                 want->nout * want->nrows * 8));
    }
    std::remove(path.c_str());

    EXPECT_FALSE(ColumnarLog::open("/nonexistent/x.snct").ok());
}

// Truncations must always be rejected (total_size can't match); bit
// flips either fail validation or leave every section safe to walk.
// Odd iterations attach from a misaligned copy, so the owned-copy
// path sees the same corruption as the zero-copy one.
TEST(ColumnarLogTest, CorruptionRejectedOrSafe)
{
    Profile profile = shortProfile("colorphun", 5.0);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ColumnarLog::encodeTraining(profile, &bytes).ok());
    const size_t n = bytes.size();

    util::Rng rng(0xc07a7);
    for (int i = 0; i < 64; ++i) {
        std::vector<uint8_t> mut = bytes;
        size_t len = n;
        if (rng.next() % 2 == 0) {
            len = rng.next() % n;  // truncate
        } else {
            size_t flips = 1 + rng.next() % 8;
            for (size_t f = 0; f < flips; ++f)
                mut[rng.next() % n] ^=
                    static_cast<uint8_t>(1u + rng.next() % 255);
        }
        std::vector<uint8_t> shifted(len + 1);
        std::memcpy(shifted.data() + 1, mut.data(), len);
        const uint8_t *data = i % 2 ? shifted.data() + 1 : mut.data();
        auto log = ColumnarLog::attach(data, len, nullptr);
        if (len < n) {
            EXPECT_FALSE(log.ok()) << "truncation accepted: " << len;
            continue;
        }
        if (!log.ok())
            continue;  // validation caught the flip
        EXPECT_EQ(log.value()->zeroCopy(), i % 2 == 0);
        touchSections(*log.value());
    }
}

// The same corruption discipline through the file path: every mut
// goes to disk and comes back through open()'s mmap'd attach (not
// the in-memory one), so the zero-copy decode validation and the
// mapping's cleanup on rejection are what's exercised — under asan
// a leaked or double-unmapped mapping fails the run.
TEST(ColumnarLogTest, MmapCorruptionRejectedCleanly)
{
    Profile profile = shortProfile("colorphun", 5.0);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ColumnarLog::encodeTraining(profile, &bytes).ok());
    const size_t n = bytes.size();
    std::string path = ::testing::TempDir() + "/snip_corrupt.snct";

    util::Rng rng(0x5c07);
    for (int i = 0; i < 32; ++i) {
        std::vector<uint8_t> mut = bytes;
        bool truncated = rng.next() % 2 == 0;
        if (truncated) {
            mut.resize(rng.next() % n);
        } else {
            size_t flips = 1 + rng.next() % 8;
            for (size_t f = 0; f < flips; ++f)
                mut[rng.next() % n] ^=
                    static_cast<uint8_t>(1u + rng.next() % 255);
        }
        ASSERT_TRUE(ColumnarLog::save(mut, path).ok());
        auto log = ColumnarLog::open(path);
        if (truncated) {
            // total_size can no longer match the buffer size.
            EXPECT_FALSE(log.ok()) << "truncation accepted";
            continue;
        }
        if (!log.ok())
            continue;  // validation caught the flip
        EXPECT_TRUE(log.value()->zeroCopy());
        touchSections(*log.value());
    }

    // Degenerate on-disk shapes: empty file and header-only stub
    // must come back as clean errors, not crashes or leaks.
    ASSERT_TRUE(ColumnarLog::save({}, path).ok());
    EXPECT_FALSE(ColumnarLog::open(path).ok());
    std::vector<uint8_t> stub(bytes.begin(), bytes.begin() + 16);
    ASSERT_TRUE(ColumnarLog::save(stub, path).ok());
    EXPECT_FALSE(ColumnarLog::open(path).ok());
    std::remove(path.c_str());
}

// One format version is read. A current file with any other version
// word, and a file in the old 88-byte version-2 header layout (event
// stream offsets, then the training directory), are rejected by
// attach() and by open() with a Status naming the version.
TEST(ColumnarLogTest, OtherVersionsRejected)
{
    Profile profile = shortProfile("colorphun", 5.0);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ColumnarLog::encodeTraining(profile, &bytes).ok());
    ASSERT_TRUE(ColumnarLog::attach(bytes.data(), bytes.size(), nullptr)
                    .ok());

    // An old-layout file: 88-byte header, game name, no events and
    // no sections, every offset pointing past the name.
    const std::string game = "colorphun";
    std::vector<uint8_t> v2((88 + game.size() + 7) & ~size_t{7}, 0);
    uint64_t total = v2.size(), end = v2.size();
    putU32At(&v2, 0, kColumnarMagic);
    putU32At(&v2, 4, 2);
    std::memcpy(v2.data() + 8, &total, 8);
    putU32At(&v2, 28, static_cast<uint32_t>(game.size()));
    for (size_t off = 32; off <= 72; off += 8)
        std::memcpy(v2.data() + off, &end, 8);
    std::memcpy(v2.data() + 88, game.data(), game.size());

    std::vector<std::vector<uint8_t>> olds = {v2};
    for (uint32_t version : {0u, 1u, 2u, kColumnarVersion + 1}) {
        olds.push_back(bytes);
        putU32At(&olds.back(), 4, version);
    }
    std::string path = ::testing::TempDir() + "/snip_version.snct";
    for (const auto &old : olds) {
        uint32_t version;
        std::memcpy(&version, old.data() + 4, 4);
        std::string want = "unsupported version " +
                           std::to_string(version);
        auto log = ColumnarLog::attach(old.data(), old.size(), nullptr);
        ASSERT_FALSE(log.ok()) << "version " << version;
        EXPECT_NE(log.status().message().find(want), std::string::npos)
            << log.status().message();
        ASSERT_TRUE(ColumnarLog::save(old, path).ok());
        auto opened = ColumnarLog::open(path);
        ASSERT_FALSE(opened.ok()) << "version " << version;
        EXPECT_NE(opened.status().message().find(want),
                  std::string::npos)
            << opened.status().message();
    }
    std::remove(path.c_str());
}

// encodeTraining must lay down, per event type, exactly the
// union-of-locations matrix the ML layer trains on: ascending field
// ids, column-major values with explicit absent markers, output-
// signature labels, max(1, instructions) weights.
TEST(TrainingSectionTest, EncodeAttachRoundTrip)
{
    Profile profile = shortProfile("ab_evolution");
    ASSERT_GT(profile.records.size(), 100u);

    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ColumnarLog::encodeTraining(profile, &bytes).ok());
    auto log = ColumnarLog::attach(bytes.data(), bytes.size(),
                                   nullptr);
    ASSERT_TRUE(log.ok()) << log.status().message();
    const ColumnarLog &cl = *log.value();
    EXPECT_EQ(cl.game(), profile.game);

    std::vector<events::EventType> ttypes = cl.trainingTypes();
    ASSERT_EQ(ttypes.size(), profile.typesPresent().size());

    for (events::EventType t : ttypes) {
        const ColumnarLog::TrainingCols *tc = cl.training(t);
        ASSERT_NE(tc, nullptr);
        auto recs = profile.ofType(t);
        ASSERT_EQ(tc->nrows, recs.size());
        for (uint32_t f = 1; f < tc->nfeat; ++f)
            EXPECT_LT(tc->feat_ids[f - 1], tc->feat_ids[f]);
        for (uint32_t o = 1; o < tc->nout; ++o)
            EXPECT_LT(tc->out_ids[o - 1], tc->out_ids[o]);
        for (size_t r = 0; r < recs.size(); ++r) {
            EXPECT_EQ(tc->labels[r],
                      events::hashFields(recs[r]->outputs));
            EXPECT_EQ(tc->weights[r],
                      std::max<uint64_t>(
                          1, recs[r]->cpu_instructions));
            // Every recorded input lands in its column; columns of
            // unread locations carry the absent marker.
            for (uint32_t f = 0; f < tc->nfeat; ++f) {
                uint64_t got = tc->feat_cols[f * tc->nrows + r];
                uint64_t want = kTrainingAbsent;
                for (const auto &fv : recs[r]->inputs)
                    if (fv.id == tc->feat_ids[f])
                        want = fv.value;
                ASSERT_EQ(got, want)
                    << "type " << static_cast<int>(t) << " row "
                    << r << " feat " << f;
            }
        }
    }
}

// Training payloads are CRC-chained per column: truncation is
// always rejected, and any bit flip below the directory level must
// be rejected too. Flips that do slip through (header/name bytes)
// must still leave every column walk in bounds under asan.
TEST(TrainingSectionTest, CorruptionFuzzRejectedOrSafe)
{
    Profile profile = shortProfile("colorphun", 10.0);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ColumnarLog::encodeTraining(profile, &bytes).ok());
    const size_t n = bytes.size();
    std::string path = ::testing::TempDir() + "/snip_train.snct";

    int iters = 48;
    if (const char *env = std::getenv("SNIP_FUZZ_ITERS"))
        iters = std::atoi(env);
    util::Rng rng(0x7a41);
    for (int i = 0; i < iters; ++i) {
        std::vector<uint8_t> mut = bytes;
        bool truncated = rng.next() % 2 == 0;
        if (truncated) {
            mut.resize(rng.next() % n);
        } else {
            size_t flips = 1 + rng.next() % 8;
            for (size_t f = 0; f < flips; ++f)
                mut[rng.next() % n] ^=
                    static_cast<uint8_t>(1u + rng.next() % 255);
        }
        // Through the file path: open() attaches the mmap'd view,
        // so the streaming CRC verify (with its residency drops) is
        // what accepts or rejects.
        ASSERT_TRUE(ColumnarLog::save(mut, path).ok());
        auto log = ColumnarLog::open(path);
        if (truncated) {
            EXPECT_FALSE(log.ok()) << "truncation accepted";
            continue;
        }
        if (!log.ok())
            continue;
        touchSections(*log.value());
    }
    std::remove(path.c_str());
}

// Flipping a single bit inside a LABEL column must be caught by the
// section CRC (the targeted version of the fuzz above: labels sit
// deep in the payload, past the structural checks).
TEST(TrainingSectionTest, LabelColumnBitFlipRejected)
{
    Profile profile = shortProfile("colorphun", 10.0);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ColumnarLog::encodeTraining(profile, &bytes).ok());
    auto ok_log = ColumnarLog::attach(bytes.data(), bytes.size(),
                                      nullptr);
    ASSERT_TRUE(ok_log.ok());
    auto ttypes = ok_log.value()->trainingTypes();
    ASSERT_FALSE(ttypes.empty());
    const auto *tc = ok_log.value()->training(ttypes[0]);
    size_t label_off = static_cast<size_t>(
        reinterpret_cast<const uint8_t *>(tc->labels) -
        bytes.data());

    for (uint64_t r : {uint64_t{0}, tc->nrows / 2, tc->nrows - 1}) {
        std::vector<uint8_t> mut = bytes;
        mut[label_off + r * 8 + 3] ^= 0x10;
        auto log = ColumnarLog::attach(mut.data(), mut.size(),
                                       nullptr);
        EXPECT_FALSE(log.ok()) << "label flip at row " << r;
        if (!log.ok()) {
            EXPECT_NE(log.status().message().find("crc"),
                      std::string::npos)
                << log.status().message();
        }
    }
}

// The streaming writer must produce byte-for-byte the section
// encodeTraining lays down for the same rows — same offsets, same
// values, same chained CRC — so encoded and streamed files are
// interchangeable.
TEST(TrainingWriterTest, MatchesEncodeTraining)
{
    Profile profile = shortProfile("colorphun", 10.0);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ColumnarLog::encodeTraining(profile, &bytes).ok());
    auto ref = ColumnarLog::attach(bytes.data(), bytes.size(),
                                   nullptr);
    ASSERT_TRUE(ref.ok());
    auto ttypes = ref.value()->trainingTypes();
    ASSERT_FALSE(ttypes.empty());
    events::EventType t = ttypes[0];
    const auto *rc = ref.value()->training(t);

    std::vector<uint32_t> fids(rc->feat_ids,
                               rc->feat_ids + rc->nfeat);
    std::vector<uint32_t> oids(rc->out_ids, rc->out_ids + rc->nout);
    std::string path = ::testing::TempDir() + "/snip_writer.snct";
    TrainingWriter w;
    ASSERT_TRUE(w.create(path, profile.game, t, fids, oids,
                         rc->nrows)
                    .ok());
    std::vector<uint64_t> feat(rc->nfeat), outv(rc->nout);
    for (uint64_t r = 0; r < rc->nrows; ++r) {
        for (uint32_t f = 0; f < rc->nfeat; ++f)
            feat[f] = rc->feat_cols[f * rc->nrows + r];
        for (uint32_t o = 0; o < rc->nout; ++o)
            outv[o] = rc->out_cols[o * rc->nrows + r];
        ASSERT_TRUE(w.addRow(feat.data(), rc->labels[r],
                             rc->weights[r], outv.data())
                        .ok());
    }
    ASSERT_TRUE(w.finish().ok());

    auto got = ColumnarLog::open(path);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value()->game(), profile.game);
    const auto *gc = got.value()->training(t);
    ASSERT_NE(gc, nullptr);
    ASSERT_EQ(gc->nrows, rc->nrows);
    ASSERT_EQ(gc->nfeat, rc->nfeat);
    ASSERT_EQ(gc->nout, rc->nout);
    EXPECT_EQ(0, std::memcmp(gc->feat_cols, rc->feat_cols,
                             rc->nfeat * rc->nrows * 8));
    EXPECT_EQ(0, std::memcmp(gc->labels, rc->labels, rc->nrows * 8));
    EXPECT_EQ(0,
              std::memcmp(gc->weights, rc->weights, rc->nrows * 8));
    EXPECT_EQ(0, std::memcmp(gc->out_cols, rc->out_cols,
                             rc->nout * rc->nrows * 8));
    std::remove(path.c_str());
}

// Misuse must come back as Status, and an unfinished file must be
// rejected at attach (its section CRC is still the 0 placeholder).
TEST(TrainingWriterTest, RejectsMisuseAndUnfinishedFiles)
{
    std::string path = ::testing::TempDir() + "/snip_writer2.snct";
    std::vector<uint32_t> bad_ids = {3, 1};  // not ascending
    TrainingWriter w0;
    EXPECT_FALSE(w0.create(path, "g", events::EventType::Touch,
                           bad_ids, {}, 4)
                     .ok());

    std::vector<uint32_t> fids = {0, 2};
    std::vector<uint32_t> oids = {5};
    TrainingWriter w;
    ASSERT_TRUE(w.create(path, "g", events::EventType::Touch, fids,
                         oids, 3)
                    .ok());
    uint64_t feat[2] = {7, 9}, outv[1] = {1};
    EXPECT_FALSE(w.addRow(feat, 11, 0, outv).ok());  // zero weight
    ASSERT_TRUE(w.addRow(feat, 11, 1, outv).ok());
    EXPECT_FALSE(w.finish().ok());  // 1 of 3 declared rows

    // Partially written file on disk: must not attach.
    auto log = ColumnarLog::open(path);
    EXPECT_FALSE(log.ok());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace trace
}  // namespace snip
