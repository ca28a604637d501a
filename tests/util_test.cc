/**
 * @file
 * Unit tests for the util layer: RNG determinism and distribution
 * properties, byte buffers and hashing, statistics primitives,
 * table/CSV rendering, and unit conversions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/csv_writer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "util/units.h"

namespace snip {
namespace util {
namespace {

class ThrowOnErrorGuard
{
  public:
    ThrowOnErrorGuard() { prev_ = setThrowOnError(true); }
    ~ThrowOnErrorGuard() { setThrowOnError(prev_); }

  private:
    bool prev_;
};

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    uint64_t first = a.next();
    a.next();
    a.seed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = rng.uniformInt(5, 17);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 17u);
    }
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(3);
    EXPECT_EQ(rng.uniformInt(9, 9), 9u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

// uniformInt computes its rejection threshold only for draws below
// the bound; the stream must equal the formula that computes it for
// every draw. 2^63 + 1 rejects about half its draws.
TEST(Rng, UniformIntMatchesTwoDivisionFormula)
{
    const uint64_t bounds[] = {1,           2, 3, 1000, (1ULL << 32) + 1,
                               (1ULL << 63) + 1};
    for (uint64_t bound : bounds) {
        Rng rng(77), raw(77);
        uint64_t threshold = (~bound + 1) % bound;
        uint64_t rejected = 0;
        for (int i = 0; i < 200000; ++i) {
            uint64_t r = raw.next();
            for (; r < threshold; r = raw.next())
                ++rejected;
            ASSERT_EQ(rng.uniformInt(5, 5 + bound - 1), 5 + r % bound)
                << "bound " << bound << " draw " << i;
        }
        if (bound == (1ULL << 63) + 1) {
            EXPECT_GT(rejected, 50000u);
        }
        EXPECT_EQ(rng.next(), raw.next()) << "bound " << bound;
    }
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(14);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, LogNormalMedian)
{
    Rng rng(15);
    std::vector<double> vals;
    for (int i = 0; i < 20001; ++i)
        vals.push_back(rng.logNormal(100.0, 0.5));
    std::sort(vals.begin(), vals.end());
    EXPECT_NEAR(vals[10000], 100.0, 5.0);
}

TEST(Rng, LogNormalRejectsNonPositiveMedian)
{
    ThrowOnErrorGuard guard;
    Rng rng(1);
    EXPECT_THROW(rng.logNormal(0.0, 1.0), std::runtime_error);
}

TEST(Rng, PermutationIsBijection)
{
    Rng rng(21);
    auto p = rng.permutation(257);
    std::set<size_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), 257u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, PermutationEmpty)
{
    Rng rng(1);
    EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(31);
    std::vector<double> w = {0.0, 1.0, 3.0};
    int counts[3] = {};
    for (int i = 0; i < 20000; ++i)
        ++counts[rng.weightedIndex(w)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, WeightedIndexRejectsAllZero)
{
    ThrowOnErrorGuard guard;
    Rng rng(1);
    std::vector<double> w = {0.0, 0.0};
    EXPECT_THROW(rng.weightedIndex(w), std::runtime_error);
}

TEST(Rng, BurstLengthBounds)
{
    Rng rng(33);
    for (int i = 0; i < 1000; ++i) {
        uint64_t len = rng.burstLength(4.0, 10);
        EXPECT_GE(len, 1u);
        EXPECT_LE(len, 10u);
    }
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(55);
    Rng child = a.fork(1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == child.next());
    EXPECT_LT(same, 2);
}

TEST(Mix64, AvalancheOnSingleBit)
{
    uint64_t a = mix64(0x1234);
    uint64_t b = mix64(0x1235);
    int diff = __builtin_popcountll(a ^ b);
    EXPECT_GT(diff, 16);
}

TEST(Mix64, CombineOrderSensitive)
{
    EXPECT_NE(mixCombine(1, 2), mixCombine(2, 1));
}

// -------------------------------------------------------------- bytes

TEST(Fnv1a, KnownProperties)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
    EXPECT_NE(fnv1a(std::string("a")), fnv1a(std::string("b")));
    EXPECT_EQ(fnv1a(std::string("hello")), fnv1a(std::string("hello")));
}

TEST(Fnv1a, WordOrderSensitive)
{
    const uint64_t ab[] = {1, 2}, ba[] = {2, 1}, one[] = {1, 0};
    EXPECT_NE(fnv1a(ab, sizeof ab), fnv1a(ba, sizeof ba));
    EXPECT_NE(fnv1a(one, 8), fnv1a(one, 16));
}

// The seed continues a stream: hashing b from fnv1a(a) equals hashing
// a‖b in one pass, for every split point (the empty suffix included).
TEST(Fnv1a, SeedContinuesStream)
{
    Rng rng(17);
    for (int trial = 0; trial < 64; ++trial) {
        std::vector<uint8_t> ab(rng.uniformInt(0, 96));
        for (auto &b : ab)
            b = static_cast<uint8_t>(rng.next());
        size_t split = rng.uniformInt(0, ab.size());
        uint64_t whole = fnv1a(ab.data(), ab.size());
        uint64_t a = fnv1a(ab.data(), split);
        EXPECT_EQ(fnv1a(ab.data() + split, ab.size() - split, a), whole);
    }
}

// A failed atomic write leaves neither the target nor a tmp file.
TEST(WriteFileAtomic, FailureLeavesNoTmpFile)
{
    const char data[] = "payload";
    EXPECT_FALSE(
        writeFileAtomic("/nonexistent/dir/f.bin", data, sizeof data).ok());

    // rename() onto a non-empty directory fails after the tmp file
    // was fully written: the tmp file must be removed.
    std::string dir = ::testing::TempDir() + "/snip_atomic_dir";
    ::mkdir(dir.c_str(), 0755);
    std::string inner = dir + "/keep";
    ASSERT_TRUE(writeFileAtomic(inner, data, sizeof data).ok());
    EXPECT_FALSE(writeFileAtomic(dir, data, sizeof data).ok());
    struct stat sb;
    EXPECT_NE(::stat((dir + ".tmp").c_str(), &sb), 0);
    std::remove(inner.c_str());
    ::rmdir(dir.c_str());
}

TEST(ByteBuffer, RoundTripPrimitives)
{
    ByteBuffer buf;
    buf.putU8(0xab);
    buf.putU32(0xdeadbeef);
    buf.putU64(0x0123456789abcdefULL);
    buf.putString("snip");
    ByteReader r(buf.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.str(), "snip");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.pos(), buf.size());
}

TEST(ByteBuffer, HashChangesWithContent)
{
    ByteBuffer a, b;
    a.putU32(1);
    b.putU32(2);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(ByteBuffer, TryGettersFailWithoutPanicking)
{
    ByteBuffer buf;
    buf.putU32(0xfeedf00d);
    buf.putString("ok");

    ByteReader r(buf.data());
    EXPECT_EQ(r.u32(), 0xfeedf00du);
    EXPECT_EQ(r.str(), "ok");
    EXPECT_TRUE(r.ok());

    // Underruns return zero values and leave the position where it
    // was.
    size_t at = r.pos();
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.pos(), at);

    // A string whose length prefix overruns the data must also fail,
    // with an empty result.
    ByteBuffer lying;
    lying.putU32(1000);
    lying.putU8('x');
    ByteReader lr(lying.data());
    EXPECT_EQ(lr.str(), "");
    EXPECT_FALSE(lr.ok());
}

TEST(ByteBuffer, PutBytesAppendsRaw)
{
    ByteBuffer src;
    src.putU32(0x01020304);
    ByteBuffer dst;
    dst.putU8(0xff);
    dst.putBytes(src.data().data(), src.size());
    EXPECT_EQ(dst.size(), 5u);
    ByteReader r(dst.data());
    EXPECT_EQ(r.u8(), 0xff);
    EXPECT_EQ(r.u32(), 0x01020304u);
}

TEST(ByteReader, LatchesFailure)
{
    ByteBuffer buf;
    buf.putU32(42);
    ByteReader r(buf.data());
    EXPECT_EQ(r.u32(), 42u);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.u64(), 0u);  // underrun
    EXPECT_FALSE(r.ok());
    // Once failed, stays failed even though a byte is conceptually
    // available.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(ByteReader, FitsBoundsCounts)
{
    ByteBuffer buf;
    for (int i = 0; i < 16; ++i)
        buf.putU8(0);
    ByteReader r(buf.data());
    EXPECT_TRUE(r.fits(4, 4));
    EXPECT_TRUE(r.fits(0, 1000));
    EXPECT_FALSE(r.fits(5, 4));
    EXPECT_FALSE(r.fits(0xffffffffu, 4));  // would overflow naive mul
}

TEST(ByteReader, BytesBorrowsTheInput)
{
    ByteBuffer buf;
    buf.putU32(7);
    buf.putBytes("abcdef", 6);
    ByteReader r(buf.data());
    r.skip(4);
    std::span<const uint8_t> s = r.bytes(6);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(s.data(), buf.data().data() + 4);  // zero-copy
    EXPECT_EQ(s.size(), 6u);
    EXPECT_EQ(r.pos(), buf.size());
    EXPECT_TRUE(r.bytes(1).empty());  // underrun: empty, latched
    EXPECT_FALSE(r.ok());
}

TEST(Envelope, SealThenOpen)
{
    const uint8_t payload[] = {1, 2, 3, 4, 5};
    ByteBuffer sealed;
    sealEnvelope(0x534e5054, 3, payload, sealed);
    ASSERT_EQ(sealed.size(), kEnvelopeHeaderBytes + sizeof payload +
                                 kEnvelopeFooterBytes);

    Result<Envelope> env = openEnvelope(sealed.data(), 0x534e5054, "t");
    ASSERT_TRUE(env.ok()) << env.status().message();
    EXPECT_EQ(env.value().version, 3u);
    EXPECT_TRUE(env.value().crc_ok);
    EXPECT_EQ(env.value().crc, crc32(payload, sizeof payload));
    EXPECT_EQ(env.value().payload.data(),
              sealed.data().data() + kEnvelopeHeaderBytes);
    EXPECT_EQ(env.value().payload.size(), sizeof payload);

    // Wrong magic, a truncated header and a length that does not
    // account for every byte are errors, named by the caller's tag.
    Result<Envelope> bad = openEnvelope(sealed.data(), 0x534e504d, "t");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().message().rfind("t: bad magic", 0), 0u);
    std::span<const uint8_t> all(sealed.data());
    EXPECT_FALSE(openEnvelope(all.first(11), 0x534e5054, "t").ok());
    EXPECT_FALSE(
        openEnvelope(all.first(all.size() - 1), 0x534e5054, "t").ok());

    // A flipped payload byte opens, with the CRC reported as wrong.
    ByteBuffer flipped;
    flipped.putBytes(sealed.data().data(), sealed.size());
    const_cast<std::vector<uint8_t> &>(flipped.data())[13] ^= 0x40;
    env = openEnvelope(flipped.data(), 0x534e5054, "t");
    ASSERT_TRUE(env.ok());
    EXPECT_FALSE(env.value().crc_ok);
}

TEST(Crc32, KnownAnswers)
{
    // The CRC-32/IEEE check value ("123456789" -> 0xCBF43926) plus
    // edge cases.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_NE(crc32("a", 1), crc32("b", 1));
}

TEST(Crc32, SeedChainsPartials)
{
    const char *msg = "snip ota payload";
    uint32_t whole = crc32(msg, 16);
    uint32_t chained = crc32(msg + 7, 9, crc32(msg, 7));
    EXPECT_EQ(whole, chained);
}

TEST(Crc32, DetectsEveryBitFlip)
{
    uint8_t data[32];
    for (size_t i = 0; i < sizeof data; ++i)
        data[i] = static_cast<uint8_t>(i * 37 + 1);
    uint32_t base = crc32(data, sizeof data);
    for (size_t i = 0; i < sizeof data; ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            data[i] ^= static_cast<uint8_t>(1 << bit);
            EXPECT_NE(crc32(data, sizeof data), base);
            data[i] ^= static_cast<uint8_t>(1 << bit);
        }
    }
}

TEST(ToHex, Formats)
{
    uint8_t data[] = {0x00, 0xff, 0x1a};
    EXPECT_EQ(toHex(data, 3), "00ff1a");
}

TEST(FormatSize, Scales)
{
    EXPECT_EQ(formatSize(640), "640 B");
    EXPECT_EQ(formatSize(1536), "1.50 kB");
    EXPECT_EQ(formatSize(5.0 * 1024 * 1024 * 1024), "5.00 GB");
}

// -------------------------------------------------------------- stats

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, MergeEqualsCombined)
{
    Summary a, b, all;
    for (int i = 0; i < 10; ++i) {
        double v = i * 1.7 - 3;
        (i < 5 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Summary, MergeWithEmpty)
{
    Summary a, empty;
    a.add(5.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(EmpiricalCdf, Quantiles)
{
    EmpiricalCdf cdf;
    for (int i = 1; i <= 100; ++i)
        cdf.add(i);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(cdf.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(cdf.maxValue(), 100.0);
}

TEST(EmpiricalCdf, CdfAt)
{
    EmpiricalCdf cdf;
    for (int i = 1; i <= 10; ++i)
        cdf.add(i);
    EXPECT_DOUBLE_EQ(cdf.cdfAt(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.cdfAt(5.0), 0.5);
    EXPECT_DOUBLE_EQ(cdf.cdfAt(10.0), 1.0);
}

TEST(EmpiricalCdf, EmptyPanics)
{
    ThrowOnErrorGuard guard;
    EmpiricalCdf cdf;
    EXPECT_THROW(cdf.quantile(0.5), std::runtime_error);
}

TEST(Log2Histogram, Buckets)
{
    Log2Histogram h;
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(1024);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.buckets().at(1), 1u);
    EXPECT_EQ(h.buckets().at(2), 2u);
    EXPECT_EQ(h.buckets().at(1024), 1u);
}

// Regression: sub-1.0 samples used to alias into the [1, 2) bucket
// because 1 << floor(log2(x)) is 1 for any negative exponent (and
// log2 of zero/negatives is garbage). They must land in a dedicated
// underflow bucket instead, and NaN must be ignored outright.
TEST(Log2Histogram, UnderflowBucket)
{
    Log2Histogram h;
    h.add(0.5);
    h.add(0.0);
    h.add(-3.0);
    h.add(0.999999);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.buckets().at(Log2Histogram::kUnderflowBucket), 4u);
    EXPECT_EQ(h.buckets().count(1), 0u);
}

TEST(Log2Histogram, BucketBoundaries)
{
    Log2Histogram h;
    h.add(1.0);   // exactly the first real bucket's lower bound
    h.add(1.99);  // still [1, 2)
    h.add(2.0);   // first value of [2, 4)
    h.add(3.99);
    h.add(4.0);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.buckets().at(1), 2u);
    EXPECT_EQ(h.buckets().at(2), 2u);
    EXPECT_EQ(h.buckets().at(4), 1u);
    EXPECT_EQ(h.buckets().count(Log2Histogram::kUnderflowBucket), 0u);
}

TEST(Log2Histogram, NanIgnored)
{
    Log2Histogram h;
    h.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(h.buckets().empty());
    h.add(7.0);
    h.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 1u);
}

TEST(Log2Histogram, Merge)
{
    Log2Histogram a, b;
    a.add(1.0);
    a.add(0.25);
    b.add(1.5);
    b.add(100.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.buckets().at(1), 2u);
    EXPECT_EQ(a.buckets().at(Log2Histogram::kUnderflowBucket), 1u);
    EXPECT_EQ(a.buckets().at(64), 1u);
}

TEST(EmpiricalCdf, CopyPreservesSamples)
{
    EmpiricalCdf cdf;
    for (int i = 1; i <= 10; ++i)
        cdf.add(i);
    EmpiricalCdf copy(cdf);
    EXPECT_DOUBLE_EQ(copy.quantile(0.5), 5.0);
    EmpiricalCdf assigned;
    assigned.add(999.0);
    assigned = cdf;
    EXPECT_DOUBLE_EQ(assigned.quantile(1.0), 10.0);
}

TEST(CounterSet, IncrementAndRead)
{
    CounterSet c;
    c.inc("a");
    c.inc("a", 2);
    EXPECT_EQ(c.get("a"), 3u);
    EXPECT_EQ(c.get("missing"), 0u);
}

// ---------------------------------------------------- table / csv

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1.5"});
    t.addRow({"longer", "22.25"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("22.25"), std::string::npos);
}

TEST(TablePrinter, RowArityMismatchPanics)
{
    ThrowOnErrorGuard guard;
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), std::runtime_error);
}

TEST(TablePrinter, Formatters)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::pct(0.5), "50.0%");
    EXPECT_EQ(TablePrinter::pct(0.123456, 2), "12.35%");
}

TEST(CsvWriter, EscapesSpecials)
{
    std::ostringstream os;
    CsvWriter csv(os, {"a", "b"});
    csv.row({"plain", "with,comma"});
    csv.row({"quote\"inside", "multi\nline"});
    std::string out = os.str();
    EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
    EXPECT_EQ(csv.rowsWritten(), 2u);
}

TEST(CsvWriter, ArityEnforced)
{
    ThrowOnErrorGuard guard;
    std::ostringstream os;
    CsvWriter csv(os, {"a"});
    EXPECT_THROW(csv.row({"1", "2"}), std::runtime_error);
}

// -------------------------------------------------------------- units

TEST(Units, BatteryCapacity)
{
    // 3450 mAh at 3.85 V = 3.45 * 3600 * 3.85 J.
    EXPECT_NEAR(batteryCapacityJoules(3450, 3.85), 47816.0, 1.0);
}

TEST(Units, HoursToDrain)
{
    EXPECT_NEAR(hoursToDrain(3600.0, 1.0), 1.0, 1e-12);
    EXPECT_NEAR(hoursToDrain(47816.0, 4.43), 3.0, 0.01);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(nanojoules(1e9), 1.0);
    EXPECT_DOUBLE_EQ(millijoules(1000), 1.0);
    EXPECT_DOUBLE_EQ(milliwatts(500), 0.5);
    EXPECT_DOUBLE_EQ(hours(2), 7200.0);
}

TEST(Units, Formatters)
{
    EXPECT_EQ(formatEnergy(1500.0), "1.50 kJ");
    EXPECT_EQ(formatEnergy(0.002), "2.00 mJ");
    EXPECT_EQ(formatPower(0.5), "500 mW");
    EXPECT_EQ(formatTime(7200.0), "2.00 h");
    EXPECT_EQ(formatTime(0.0167), "16.70 ms");
}

TEST(Units, InvalidBatteryFatal)
{
    ThrowOnErrorGuard guard;
    EXPECT_THROW(batteryCapacityJoules(0, 3.85), std::runtime_error);
    EXPECT_THROW(hoursToDrain(100.0, 0.0), std::runtime_error);
}

// Parameterized sweep: uniformInt is unbiased across ranges.
class RngRangeTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RngRangeTest, UniformIntMeanIsCentered)
{
    uint64_t hi = GetParam();
    Rng rng(hi * 7 + 1);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.uniformInt(0, hi));
    double mean = sum / n;
    double expect = static_cast<double>(hi) / 2.0;
    EXPECT_NEAR(mean, expect, std::max(0.05, expect * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngRangeTest,
                         ::testing::Values(1, 2, 7, 16, 100, 1023,
                                           65535));

// ------------------------------------------------------------ Logging

/**
 * Log lines must reach stderr as single atomic writes: the SNIP
 * audit watchdog warns from whatever thread runs a session, and a
 * multi-chunk fprintf to the unbuffered stderr interleaves lines
 * from concurrent sessions. Redirect stderr to a file, hammer warn()
 * from 8 threads, and require every line to come back whole.
 */
TEST(Logging, ConcurrentWarnLinesStayIntact)
{
    const std::string path =
        ::testing::TempDir() + "/snip_warn_lines.txt";
    const std::string filler(40, '-');

    int saved = ::dup(STDERR_FILENO);
    ASSERT_GE(saved, 0);
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_GE(::dup2(fd, STDERR_FILENO), 0);
    ::close(fd);

    constexpr int kThreads = 8;
    constexpr int kLines = 200;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &filler] {
            for (int i = 0; i < kLines; ++i)
                warn("t%d line %d %s", t, i, filler.c_str());
        });
    }
    for (auto &th : pool)
        th.join();

    ::dup2(saved, STDERR_FILENO);
    ::close(saved);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::set<std::pair<int, int>> seen;
    std::string line;
    size_t total = 0;
    while (std::getline(in, line)) {
        ++total;
        int t = -1, i = -1;
        char tail[64] = {0};
        ASSERT_EQ(std::sscanf(line.c_str(), "warn: t%d line %d %63s",
                              &t, &i, tail),
                  3)
            << "mangled line: '" << line << "'";
        EXPECT_TRUE(t >= 0 && t < kThreads) << line;
        EXPECT_TRUE(i >= 0 && i < kLines) << line;
        EXPECT_EQ(filler, tail) << line;
        EXPECT_TRUE(seen.emplace(t, i).second)
            << "duplicate line: '" << line << "'";
    }
    EXPECT_EQ(total, static_cast<size_t>(kThreads) * kLines);
    EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads) * kLines);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace util
}  // namespace snip
