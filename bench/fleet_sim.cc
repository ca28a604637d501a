/**
 * @file
 * Fleet-scale OTA backend bench: one continuous-learning lineage is
 * published into a fleet::ModelRegistry (through the learner's
 * deploy seam), then
 *
 *   1. a simulated 1M-device fleet, partitioned into staleness
 *      cohorts, receives the head epoch — reporting full-package vs
 *      delta OTA bytes (the fig06_ota_payload baseline vs SNPD
 *      patches) and asserting delta is strictly below full;
 *   2. a batch of per-device upload payloads is aggregated by a
 *      serial decode-and-merge reference and by
 *      fleet::aggregateUploads (parallel decode, then one merge
 *      chain), asserting the frozen arenas are byte-identical and
 *      reporting both wall times;
 *   3. each cohort's stale-version lookup hit rate is reported
 *      (staleness skew = max - min).
 *
 * Exits non-zero when the delta-beats-full or aggregate-equivalence
 * contract is violated, which is what lets tools/ci.sh run it as a
 * fleet smoke. Prints single-line JSON to stdout, and also writes it
 * to --out <path> when given.
 *
 * Flags: --quick (shorter sessions, smaller lineage), --seed <n>,
 * --threads <n>, --devices <n>, --uploads <n>,
 * --epochs <n>, --out <path>.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "core/continuous_learning.h"
#include "core/model_codec.h"
#include "fleet/aggregate.h"
#include "fleet/delta.h"
#include "fleet/fleet_sim.h"
#include "fleet/registry.h"
#include "games/registry.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace snip;

// ------------------------------------------------ counting allocator
// Same instrumentation as tests/alloc_test.cc: every allocation
// in the process counts, making the per-upload figure an upper
// bound.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<uint64_t> g_allocs{0};
}

void *
operator new(size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses
// them), so every block reaching the deletes below came from malloc.
void *
operator new(size_t size, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void *
operator new[](size_t size, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Args {
    bool quick = false;
    uint64_t seed = 0xf1ee7ULL;
    unsigned threads = 0;
    uint64_t devices = 1000000;
    size_t uploads = 24;
    int epochs = 5;
    std::string game = "candy_crush";
    /** JSON copy destination; empty = stdout only. */
    std::string out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            a.quick = true;
            a.uploads = 8;
            a.epochs = 4;
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            a.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            a.threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--devices") == 0 &&
                   i + 1 < argc) {
            a.devices = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--uploads") == 0 &&
                   i + 1 < argc) {
            a.uploads = std::strtoul(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--epochs") == 0 &&
                   i + 1 < argc) {
            a.epochs =
                static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--game") == 0 &&
                   i + 1 < argc) {
            a.game = argv[++i];
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            a.out = argv[++i];
        } else {
            util::fatal("fleet_sim: unknown argument '%s'", argv[i]);
        }
    }
    return a;
}

/** The serial reference: decode each upload, merge in upload order. */
void
serialAggregate(core::MemoTable &dest,
                const std::vector<util::ByteBuffer> &uploads)
{
    for (size_t u = 0; u < uploads.size(); ++u) {
        util::Result<core::SnipModel> decoded =
            core::unpackModel(uploads[u]);
        if (!decoded.ok() || !decoded.value().table) {
            util::warn("fleet_sim: dropping upload %zu: %s", u,
                       decoded.status().message().c_str());
            continue;
        }
        dest.mergeFrom(*decoded.value().table);
    }
}

bool
sameArena(const core::MemoTable &a, const core::MemoTable &b)
{
    auto fa = a.freeze();
    auto fb = b.freeze();
    return fa->arenaSize() == fb->arenaSize() &&
           std::memcmp(fa->arenaData(), fb->arenaData(),
                       fa->arenaSize()) == 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    obs::Registry obs;

    // ---- lineage: continuous learning publishes into the registry
    fleet::ModelRegistry reg(&obs);
    {
        auto game = games::makeGame(a.game);
        auto replica = games::makeGame(a.game);
        core::LearningConfig lc;
        lc.epochs = a.epochs;
        lc.session_s = a.quick ? 12.0 : 25.0;
        fleet::bindLearner(lc, reg, a.game);
        core::ContinuousLearner learner(*game, *replica, lc);
        learner.run();
    }
    size_t versions = reg.versionCount(a.game);
    std::printf("fleet_sim: %zu versions published for %s\n",
                versions, a.game.c_str());
    if (versions == 0)
        util::fatal("fleet_sim: learner published no versions");

    // ---- delta OTA push to the cohort fleet
    fleet::FleetSimConfig fcfg;
    fcfg.game = a.game;
    fcfg.devices = a.devices;
    fcfg.threads = a.threads;
    fcfg.seed = a.seed;
    fcfg.eval_seconds = a.quick ? 10.0 : 20.0;
    fcfg.obs = &obs;
    util::Result<fleet::EpochPushReport> pushed =
        fleet::pushEpoch(reg, fcfg);
    if (!pushed.ok())
        util::fatal("fleet_sim: push failed: %s",
                    pushed.status().message().c_str());
    const fleet::EpochPushReport &push = pushed.value();

    bool delta_beats_full = push.delta_bytes < push.full_bytes;
    if (!delta_beats_full)
        std::fprintf(stderr,
                     "fleet_sim: FAIL delta OTA (%llu bytes) does "
                     "not beat full packages (%llu bytes)\n",
                     static_cast<unsigned long long>(
                         push.delta_bytes),
                     static_cast<unsigned long long>(
                         push.full_bytes));

    // ---- parallel-decode vs serial aggregation
    core::SnipModel agreed;
    {
        // The agreed fleet model whose selections devices project
        // onto: decode the registry head (the latest epoch).
        auto head = reg.fetch(a.game, push.head);
        if (!head.ok())
            util::fatal("fleet_sim: head fetch failed: %s",
                        head.status().message().c_str());
        util::Result<core::SnipModel> decoded =
            core::unpackModel(*head.value());
        if (!decoded.ok())
            util::fatal("fleet_sim: head decode failed: %s",
                        decoded.status().message().c_str());
        agreed = std::move(decoded.value());
    }

    uint64_t allocs_before = g_allocs.load();
    std::vector<util::ByteBuffer> uploads =
        fleet::recordUploadPayloads(a.game, agreed, a.uploads,
                                    a.seed, a.quick ? 6.0 : 12.0,
                                    a.threads);
    uint64_t allocs_per_upload =
        a.uploads ? (g_allocs.load() - allocs_before) / a.uploads
                  : 0;

    core::MemoTable serial_dest(*agreed.table);
    double serial_s =
        wallSeconds([&] { serialAggregate(serial_dest, uploads); });

    core::MemoTable parallel_dest(*agreed.table);
    fleet::AggregateConfig acfg;
    acfg.threads = a.threads;
    acfg.obs = &obs;
    double parallel_s = wallSeconds([&] {
        fleet::aggregateUploads(parallel_dest, uploads, acfg);
    });
    bool aggregate_identical = sameArena(serial_dest, parallel_dest);
    if (!aggregate_identical)
        std::fprintf(stderr,
                     "fleet_sim: FAIL aggregateUploads differs from "
                     "the serial chain\n");

    // ---- report
    std::string cohorts_json;
    for (const fleet::CohortReport &c : push.cohorts) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"name\":\"%s\",\"devices\":%llu,"
            "\"versions_behind\":%u,\"patch_bytes\":%llu,"
            "\"full_bytes\":%llu,\"delta_bytes\":%llu,"
            "\"used_delta\":%s,\"stale_hit_rate\":%.4f}",
            cohorts_json.empty() ? "" : ",", c.name.c_str(),
            static_cast<unsigned long long>(c.devices),
            c.versions_behind,
            static_cast<unsigned long long>(c.patch_bytes),
            static_cast<unsigned long long>(c.full_bytes),
            static_cast<unsigned long long>(c.delta_bytes),
            c.used_delta ? "true" : "false", c.hit_rate);
        cohorts_json += buf;
    }

    char json[2048];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"fleet_sim\",\"game\":\"%s\",\"devices\":%llu,"
        "\"versions\":%zu,\"head_bytes\":%llu,"
        "\"ota_full_bytes\":%llu,\"ota_delta_bytes\":%llu,"
        "\"delta_ratio\":%.4f,\"delta_beats_full\":%s,"
        "\"fallbacks\":%zu,\"staleness_skew\":%.4f,"
        "\"uploads\":%zu,\"allocs_per_upload\":%llu,"
        "\"agg_serial_s\":%.4f,\"agg_parallel_s\":%.4f,"
        "\"aggregate_identical\":%s,"
        "\"cohorts\":[%s]}",
        a.game.c_str(), static_cast<unsigned long long>(a.devices),
        versions, static_cast<unsigned long long>(push.head_bytes),
        static_cast<unsigned long long>(push.full_bytes),
        static_cast<unsigned long long>(push.delta_bytes),
        push.full_bytes
            ? static_cast<double>(push.delta_bytes) /
                  static_cast<double>(push.full_bytes)
            : 0.0,
        delta_beats_full ? "true" : "false", push.fallbacks,
        push.staleness_skew, a.uploads,
        static_cast<unsigned long long>(allocs_per_upload),
        serial_s, parallel_s,
        aggregate_identical ? "true" : "false", cohorts_json.c_str());
    std::printf("%s\n", json);
    if (!a.out.empty()) {
        FILE *f = std::fopen(a.out.c_str(), "w");
        if (!f)
            util::fatal("fleet_sim: cannot write %s", a.out.c_str());
        std::fprintf(f, "%s\n", json);
        std::fclose(f);
    }

    return delta_beats_full && aggregate_identical ? 0 : 1;
}
