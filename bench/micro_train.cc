/**
 * @file
 * Training-side (Shrink phase, paper §V-A) microbenchmark: PFI
 * throughput over the exact-match TablePredictor and full
 * necessary-input selection wall time at 1 vs N threads, plus the
 * determinism contracts the parallel pipeline promises:
 *
 *   - PFI importances / SelectionResult (its Fig. 9 tail charted,
 *     ml::chartTail) / packed OTA model bytes are byte-identical at
 *     every thread count;
 *   - training through a memory-mapped ml::ChunkedDataset — any
 *     block size — reproduces the in-memory selection and packed
 *     model byte for byte (the out-of-core digest contract).
 *
 * With --rows N the bench additionally generates an N-row synthetic
 * SNCT training file on disk (trace::TrainingWriter, streaming,
 * bounded memory), runs the production out-of-core Shrink over it
 * (core::buildSnipModel on the mmap'd trace) and reports its wall
 * time, rows_per_sec, the packed model's size and CRC, and
 * peak_rss_bytes (VmHWM) — optionally asserting the peak against
 * --rss-cap-mb. tools/ci.sh runs it at two block geometries and
 * requires the same package CRC.
 *
 * Prints JSON to stdout, and also writes it to --out <path> when
 * given (BENCH_* files carry a training-side perf trajectory); its
 * scratch SNCT files are mkstemp files under $TMPDIR (default /tmp).
 * Exits non-zero when any contract above is violated — which is
 * what lets tools/ci.sh use it as a determinism smoke.
 *
 * Flags: --quick (shorter profile), --seed <n>,
 * --threads <n> (the "N" side; default: all cores / SNIP_THREADS),
 * --profile-s <sec>, --out <path>, --rows <n>
 * (synthetic out-of-core rows; 0 = skip), --block-rows <n>,
 * --rss-budget-mb <mb> (chunked residency budget),
 * --rss-cap-mb <mb> (hard VmHWM assertion; 0 = report only).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.h"
#include "core/model_codec.h"
#include "ml/chunked_dataset.h"
#include "ml/dataset.h"
#include "ml/feature_selection.h"
#include "ml/table_predictor.h"
#include "trace/columnar_log.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace snip;

namespace {

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Order-sensitive digest of a SelectionResult. */
uint32_t
selectionDigest(const ml::SelectionResult &r)
{
    util::ByteBuffer b;
    b.putU64(static_cast<uint64_t>(r.full_error * 1e12));
    b.putU64(r.full_bytes);
    b.putU64(r.selected_bytes);
    b.putU64(static_cast<uint64_t>(r.selected_error * 1e12));
    b.putU64(static_cast<uint64_t>(r.selected_hit_rate * 1e12));
    for (events::FieldId f : r.selected)
        b.putU32(f);
    for (const auto &s : r.curve) {
        b.putU32(s.dropped);
        b.putU64(s.remaining_bytes);
        b.putU64(static_cast<uint64_t>(s.error * 1e12));
    }
    return util::crc32(b.data().data(), b.size());
}

/** Selection over @p ds with its Fig. 9 tail charted, as digested. */
ml::SelectionResult
chartedSelection(const ml::DatasetView &ds, const ml::SelectionConfig &c)
{
    ml::SelectionResult r = ml::selectNecessaryInputs(ds, c);
    ml::chartTail(ds, r, c);
    return r;
}

bool
sameSelection(const ml::SelectionResult &a, const ml::SelectionResult &b)
{
    return selectionDigest(a) == selectionDigest(b) &&
           a.selected == b.selected && a.curve.size() == b.curve.size();
}

/** Peak resident set (VmHWM) of this process, in bytes. */
uint64_t
peakRssBytes()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %llu", &kb) == 1)
            break;
    }
    std::fclose(f);
    return static_cast<uint64_t>(kb) * 1024;
}

/** A fresh empty file under $TMPDIR (default /tmp) for a scratch
 *  SNCT trace; the caller removes it. */
std::string
scratchPath(const char *tag)
{
    const char *dir = std::getenv("TMPDIR");
    std::string path = std::string(dir && *dir ? dir : "/tmp") +
                       "/snip_micro_train_" + tag + ".XXXXXX";
    int fd = mkstemp(path.data());
    if (fd < 0)
        util::fatal("micro_train: cannot create %s", path.c_str());
    close(fd);
    return path;
}

struct Args {
    bench::BenchOptions opts;
    double profile_s = 60.0;
    /** JSON copy destination; empty = stdout only. */
    std::string out;
    /** Synthetic out-of-core rows; 0 = skip that stage. */
    uint64_t rows = 0;
    size_t block_rows = 4096;
    /** Chunked residency budget (MB). */
    size_t rss_budget_mb = 64;
    /** Hard VmHWM assertion (MB); 0 = report only. */
    size_t rss_cap_mb = 0;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            a.opts.quick = true;
            a.profile_s = 20.0;
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            a.opts.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            a.opts.threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--profile-s") == 0 &&
                   i + 1 < argc) {
            a.profile_s = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            a.out = argv[++i];
        } else if (std::strcmp(argv[i], "--rows") == 0 &&
                   i + 1 < argc) {
            a.rows = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--block-rows") == 0 &&
                   i + 1 < argc) {
            a.block_rows = static_cast<size_t>(
                std::strtoull(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--rss-budget-mb") == 0 &&
                   i + 1 < argc) {
            a.rss_budget_mb = static_cast<size_t>(
                std::strtoull(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--rss-cap-mb") == 0 &&
                   i + 1 < argc) {
            a.rss_cap_mb = static_cast<size_t>(
                std::strtoull(argv[++i], nullptr, 0));
        } else {
            util::fatal("unknown argument '%s' (expected --quick, "
                        "--seed <n>, --threads <n>, --profile-s "
                        "<sec>, --out <path>, "
                        "--rows <n>, --block-rows <n>, "
                        "--rss-budget-mb <mb>, --rss-cap-mb <mb>)",
                        argv[i]);
        }
    }
    return a;
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    unsigned nthreads = args.opts.threads ? args.opts.threads
                                          : util::defaultThreadCount();
    bench::printHeader("micro_train: Shrink-phase throughput",
                       "training-side perf trajectory (§V-A)");

    bench::ProfiledGame pg =
        bench::profileGame("ab_evolution", args.opts, args.profile_s);

    ml::Dataset ds(pg.profile.ofType(events::EventType::Drag),
                   pg.game->schema());

    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;
    std::printf("dataset: %zu rows x %zu features, N=%u threads\n\n",
                ds.numRows(), ds.numFeatures(), nthreads);
    bool ok = true;

    // ---- 1. PFI throughput, 1 vs N threads ----------------------
    // Over the exact-match table, the predictor Shrink ranks with.
    ml::TablePredictor table;
    table.train(ds, cols);
    ml::PfiConfig pc;
    pc.seed = util::mixCombine(args.opts.seed, 0x9f1ULL);
    ml::PfiResult pfi_1, pfi_n;
    double pfi_1t = wallSeconds([&] {
        ml::PfiConfig c = pc;
        c.threads = 1;
        pfi_1 = ml::computePfi(table, ds, cols, c);
    });
    double pfi_nt = wallSeconds([&] {
        ml::PfiConfig c = pc;
        c.threads = nthreads;
        pfi_n = ml::computePfi(table, ds, cols, c);
    });
    bool pfi_identical = pfi_1.importance == pfi_n.importance &&
                         pfi_1.base_error == pfi_n.base_error;
    ok = ok && pfi_identical;

    // ---- 2. selection wall time, 1 vs N threads -----------------
    ml::SelectionConfig sc;
    sc.pfi.seed = util::mixCombine(args.opts.seed, 0x5e1ULL);
    ml::SelectionResult sel_1, sel_n;
    double sel_1t = wallSeconds([&] {
        ml::SelectionConfig c = sc;
        c.pfi.threads = 1;
        sel_1 = chartedSelection(ds, c);
    });
    double sel_nt = wallSeconds([&] {
        ml::SelectionConfig c = sc;
        c.pfi.threads = nthreads;
        sel_n = chartedSelection(ds, c);
    });
    bool sel_identical = sameSelection(sel_1, sel_n);
    ok = ok && sel_identical;
    uint32_t digest = selectionDigest(sel_1);

    // ---- 3. OTA package bytes across thread counts --------------
    core::SnipConfig scfg;
    scfg.seed = util::mixCombine(args.opts.seed, 0x07aULL);
    scfg.threads = 1;
    core::SnipModel m1 = core::buildSnipModel(pg.profile, *pg.game,
                                              scfg);
    scfg.threads = nthreads;
    core::SnipModel mn = core::buildSnipModel(pg.profile, *pg.game,
                                              scfg);
    util::ByteBuffer pkg1, pkgn;
    core::packModel(m1, pkg1);
    core::packModel(mn, pkgn);
    bool model_identical = pkg1.data() == pkgn.data();
    ok = ok && model_identical;
    uint32_t model_digest = util::crc32(pkg1.data().data(),
                                        pkg1.size());

    // ---- 4. out-of-core equivalence (mmap'd training trace) -----
    // Convert the profile to an SNCT training file on disk,
    // train through the memory-mapped ChunkedDataset view, and
    // require selection + packed model bytes identical to the
    // in-memory path — at two different block sizes.
    ml::ChunkedConfig ccfg;
    ccfg.block_rows = args.block_rows;
    ccfg.residency_budget_bytes = args.rss_budget_mb << 20;
    bool chunked_sel_identical = false;
    bool chunked_blocks_identical = false;
    bool chunked_model_identical = false;
    std::string tpath = scratchPath("profile");
    {
        std::vector<uint8_t> tbytes;
        util::Status enc =
            trace::ColumnarLog::encodeTraining(pg.profile, &tbytes);
        if (!enc.ok())
            util::fatal("encodeTraining: %s", enc.message().c_str());
        util::Status sv = trace::ColumnarLog::save(tbytes, tpath);
        if (!sv.ok())
            util::fatal("save: %s", sv.message().c_str());
        auto tlog = trace::ColumnarLog::open(tpath);
        if (!tlog.ok())
            util::fatal("open: %s", tlog.status().message().c_str());

        auto cds = ml::ChunkedDataset::attach(
            tlog.value(), events::EventType::Drag, pg.game->schema(),
            ccfg);
        if (!cds.ok())
            util::fatal("chunked attach: %s",
                        cds.status().message().c_str());
        ml::SelectionConfig c = sc;
        c.pfi.threads = 1;
        ml::SelectionResult sel_c = chartedSelection(*cds.value(), c);
        chunked_sel_identical = sameSelection(sel_1, sel_c);

        ml::ChunkedConfig ccfg_b = ccfg;
        ccfg_b.block_rows = ccfg.block_rows == 64 ? 4096 : 64;
        auto cds_b = ml::ChunkedDataset::attach(
            tlog.value(), events::EventType::Drag, pg.game->schema(),
            ccfg_b);
        if (!cds_b.ok())
            util::fatal("chunked attach: %s",
                        cds_b.status().message().c_str());
        ml::SelectionResult sel_cb = chartedSelection(*cds_b.value(), c);
        chunked_blocks_identical = sameSelection(sel_c, sel_cb);

        core::SnipConfig s1 = scfg;
        s1.threads = 1;
        auto cm = core::buildSnipModel(tlog.value(), *pg.game, s1,
                                       ccfg);
        if (!cm.ok())
            util::fatal("chunked buildSnipModel: %s",
                        cm.status().message().c_str());
        util::ByteBuffer cpkg;
        core::packModel(cm.value(), cpkg);
        chunked_model_identical = cpkg.data() == pkg1.data();
    }
    std::remove(tpath.c_str());
    ok = ok && chunked_sel_identical && chunked_blocks_identical &&
         chunked_model_identical;

    // ---- 5. synthetic out-of-core Shrink (--rows) ---------------
    // The production path: buildSnipModel over the mmap'd trace.
    double oo_wall = 0.0;
    double rows_per_sec = 0.0;
    size_t oo_bytes = 0;
    size_t oo_entries = 0;
    uint32_t oo_crc = 0;
    std::string spath = scratchPath("synth");
    if (args.rows > 0) {
        // Borrow real Drag field ids so the synthetic section
        // validates against the game schema.
        std::vector<uint32_t> fids, oids;
        {
            std::vector<uint8_t> tbytes;
            util::Status enc = trace::ColumnarLog::encodeTraining(
                pg.profile.truncated(64), &tbytes);
            if (!enc.ok())
                util::fatal("encodeTraining: %s",
                            enc.message().c_str());
            auto small = trace::ColumnarLog::attach(
                tbytes.data(), tbytes.size(), nullptr);
            if (!small.ok())
                util::fatal("attach: %s",
                            small.status().message().c_str());
            const auto *tc =
                small.value()->training(events::EventType::Drag);
            if (!tc)
                util::fatal("profile has no Drag training section");
            fids.assign(tc->feat_ids, tc->feat_ids + tc->nfeat);
            oids.assign(tc->out_ids, tc->out_ids + tc->nout);
        }
        std::printf("out-of-core: writing %llu synthetic rows x %zu "
                    "features...\n",
                    static_cast<unsigned long long>(args.rows),
                    fids.size());
        trace::TrainingWriter w;
        util::Status st = w.create(spath, "synthetic",
                                   events::EventType::Drag, fids,
                                   oids, args.rows);
        util::Rng rng(util::mixCombine(args.opts.seed, 0x00cULL));
        std::vector<uint64_t> feat(fids.size()), outv(oids.size());
        for (uint64_t r = 0; st.ok() && r < args.rows; ++r) {
            for (size_t f = 0; f < feat.size(); ++f)
                feat[f] = rng.uniformInt(0, 15);
            uint64_t label = util::mixCombine(
                feat[0], feat.size() > 1 ? feat[1] : 0) & 7;
            for (size_t o = 0; o < outv.size(); ++o)
                outv[o] = label + o;
            st = w.addRow(feat.data(), label, 1 + (r % 97),
                          outv.data());
        }
        if (st.ok())
            st = w.finish();
        if (!st.ok())
            util::fatal("TrainingWriter: %s", st.message().c_str());

        auto slog = trace::ColumnarLog::open(spath);
        if (!slog.ok())
            util::fatal("open synthetic: %s",
                        slog.status().message().c_str());
        core::SnipConfig ocfg = scfg;
        ocfg.threads = nthreads;
        util::Result<core::SnipModel> om =
            util::Status::Error("not built");
        oo_wall = wallSeconds([&] {
            om = core::buildSnipModel(slog.value(), *pg.game, ocfg,
                                      ccfg);
        });
        if (!om.ok())
            util::fatal("synthetic buildSnipModel: %s",
                        om.status().message().c_str());
        rows_per_sec = static_cast<double>(args.rows) /
                       (oo_wall > 0 ? oo_wall : 1e-9);
        util::ByteBuffer opkg;
        core::packModel(om.value(), opkg);
        oo_bytes = opkg.size();
        oo_entries = om.value().table->entryCount();
        oo_crc = util::crc32(opkg.data().data(), opkg.size());
    }
    std::remove(spath.c_str());

    uint64_t peak_rss = peakRssBytes();
    uint64_t rss_cap = static_cast<uint64_t>(args.rss_cap_mb) << 20;
    bool rss_ok = rss_cap == 0 || peak_rss <= rss_cap;
    ok = ok && rss_ok;

    // ---- JSON ---------------------------------------------------
    std::string json;
    char buf[4096];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"micro_train\",\n"
        "  \"game\": \"ab_evolution\",\n"
        "  \"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\"},\n"
        "  \"rows\": %zu, \"features\": %zu, \"threads\": %u,\n"
        "  \"pfi\": {\"columns\": %zu, \"repeats\": %zu, "
        "\"wall_s_1t\": %.6f, \"wall_s_nt\": %.6f, "
        "\"cols_per_sec_1t\": %.2f, \"cols_per_sec_nt\": %.2f, "
        "\"speedup\": %.3f, \"identical\": %s},\n"
        "  \"selection\": {\"wall_s_1t\": %.6f, \"wall_s_nt\": %.6f, "
        "\"speedup\": %.3f, \"identical\": %s, "
        "\"digest\": \"%08x\"},\n"
        "  \"model_codec\": {\"bytes\": %zu, "
        "\"identical_across_threads\": %s, \"digest\": \"%08x\"},\n"
        "  \"chunked\": {\"block_rows\": %zu, "
        "\"sel_identical\": %s, \"blocks_identical\": %s, "
        "\"model_identical\": %s},\n"
        "  \"out_of_core\": {\"rows\": %llu, \"block_rows\": %zu, "
        "\"wall_s\": %.3f, \"rows_per_sec\": %.0f, "
        "\"package_bytes\": %zu, \"entries\": %zu, "
        "\"package_crc\": \"%08x\"},\n"
        "  \"peak_rss_bytes\": %llu, \"rss_cap_bytes\": %llu, "
        "\"rss_ok\": %s,\n"
        "  \"contracts_ok\": %s\n"
        "}\n",
        std::thread::hardware_concurrency(), __VERSION__,
        SNIP_BUILD_TYPE,
        ds.numRows(), ds.numFeatures(), nthreads,
        cols.size(), ml::kPfiRepeats, pfi_1t, pfi_nt,
        cols.size() / (pfi_1t > 0 ? pfi_1t : 1e-9),
        cols.size() / (pfi_nt > 0 ? pfi_nt : 1e-9),
        pfi_1t / (pfi_nt > 0 ? pfi_nt : 1e-9),
        pfi_identical ? "true" : "false",
        sel_1t, sel_nt, sel_1t / (sel_nt > 0 ? sel_nt : 1e-9),
        sel_identical ? "true" : "false", digest,
        pkg1.size(),
        model_identical ? "true" : "false", model_digest,
        args.block_rows,
        chunked_sel_identical ? "true" : "false",
        chunked_blocks_identical ? "true" : "false",
        chunked_model_identical ? "true" : "false",
        static_cast<unsigned long long>(args.rows), args.block_rows,
        oo_wall, rows_per_sec, oo_bytes, oo_entries, oo_crc,
        static_cast<unsigned long long>(peak_rss),
        static_cast<unsigned long long>(rss_cap),
        rss_ok ? "true" : "false",
        ok ? "true" : "false");
    json = buf;
    std::fputs(json.c_str(), stdout);
    if (!args.out.empty()) {
        if (FILE *f = std::fopen(args.out.c_str(), "w")) {
            std::fputs(json.c_str(), f);
            std::fclose(f);
            std::printf("wrote %s\n", args.out.c_str());
        } else {
            util::warn("could not write %s", args.out.c_str());
        }
    }

    if (!ok) {
        std::fprintf(stderr, "micro_train: CONTRACT VIOLATION — see "
                             "the \"identical\" fields above\n");
        return 1;
    }
    return 0;
}
