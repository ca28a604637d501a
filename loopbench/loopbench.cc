/**
 * @file
 * The loop benchmark: times the SNIP loop (record, replay, Shrink,
 * pack, deploy, play, re-learn, publish) from outside, through
 * public library calls only, on three fixed workloads:
 *
 *   catalog_deploy  per game: record a baseline profile session,
 *                   replay it, Shrink, pack, deployModel, then play
 *                   one short Baseline and one short SNIP session on
 *                   the deployed model (the cloud turnaround);
 *   long_play       set-up builds and deploys one model per game;
 *                   the timed section plays one long Baseline and
 *                   one long SNIP session per game (the device side);
 *   relearn_fleet   three seeded lineages, each a ContinuousLearner on
 *                   ab_evolution publishing every epoch into a
 *                   fleet::ModelRegistry, then a delta-OTA push to the
 *                   default cohorts, device upload recording and
 *                   aggregation, and one device playing the head.
 *
 * One batch of a workload is a fixed amount of work built from
 * --seed; the timed section repeats the batch until --seconds have
 * passed and reports the fastest time of each part over batches. Every batch must
 * reproduce the first one's simulated outputs bit for bit. Every
 * parallel phase runs at one worker.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates
 * untraced batches with batches that attach obs::Registry sinks, and
 * prints the per-layer metrics. README.md has the metric table.
 *
 * Usage: loopbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--tiny]
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics. Exit status is 0 only when every check passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/continuous_learning.h"
#include "core/model_codec.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "fleet/aggregate.h"
#include "fleet/delta.h"
#include "fleet/fleet_sim.h"
#include "fleet/registry.h"
#include "games/registry.h"
#include "obs/metrics.h"
#include "trace/recorder.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace snip;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return ratio(s, static_cast<double>(v.size()));
}

// ------------------------------------------------------------ args

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        bool has_value = i + 1 < argc;
        if (k == "--workload" && has_value) {
            a.workload = argv[++i];
        } else if (k == "--seed" && has_value) {
            a.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (k == "--seconds" && has_value) {
            a.seconds = std::strtod(argv[++i], nullptr);
        } else if (k == "--trace" && has_value) {
            a.trace = std::strtol(argv[++i], nullptr, 0) != 0;
        } else if (k == "--tiny") {
            a.tiny = true;
        } else {
            util::fatal("loopbench: unknown argument '%s'", argv[i]);
        }
    }
    if (a.workload != "catalog_deploy" && a.workload != "long_play" &&
        a.workload != "relearn_fleet")
        util::fatal("loopbench: --workload must be catalog_deploy, "
                    "long_play or relearn_fleet");
    if (!(a.seconds > 0.0))
        util::fatal("loopbench: --seconds must be positive");
    return a;
}

/** Input sizes of one batch; --tiny shrinks them for the self-test. */
struct Sizes {
    double profile_s;      ///< recorded baseline profile per game
    double short_s;        ///< catalog_deploy sessions
    double long_s;         ///< long_play sessions
    double check_s;        ///< long_play deployed-vs-memory check
    int rounds;            ///< relearn_fleet lineages per batch
    int epochs;            ///< learner epochs per lineage
    double epoch_s;        ///< learner session per epoch
    size_t uploads;        ///< fleet upload payloads
    double upload_s;       ///< session behind each upload
    double head_play_s;    ///< relearn_fleet head-package sessions
    int setup_reps;        ///< minimum set-ups per run (fastest reported)
};

Sizes
sizesFor(const Args &a)
{
    if (a.tiny)
        return {20.0, 10.0, 30.0, 10.0, 2, 4, 8.0, 4, 4.0, 20.0, 2};
    // Lineages stop at 9 of LearningConfig's 50 epochs: Shrink cost
    // grows with the profile, 50 epochs take ~47 s at one worker, and
    // a short batch repeats more often in a run, which steadies the
    // fastest-over-batches estimate. With three lineages, a median
    // over them sets aside a single outlier head.
    core::LearningConfig lc;
    return {300.0, 60.0, 1200.0, 120.0, 3, 9, lc.session_s,
            8, 12.0, 120.0, 3};
}

/** Every program input derives from --seed through one of these. */
enum SeedTag : uint64_t {
    kProfileSeed = 0x7ec0,
    kShrinkSeed = 0x5e1ec7,
    kSessionSeed = 0xe7a1,
    kLearnSeed = 0x1ea7,
    kFleetSeed = 0xf1ee7,
    kUploadSeed = 0x0b10ad,
};

uint64_t
seedFor(uint64_t seed, SeedTag tag, uint64_t index = 0)
{
    return util::mixCombine(util::mixCombine(seed, tag), index);
}

constexpr unsigned kWorkers = 1;
const char *const kLearnGame = "ab_evolution";

// ----------------------------------------------------------- checks

/** Output checks; each one is an operation attempted. */
class Checks
{
  public:
    void expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "loopbench: CHECK FAILED: %s\n",
                         what.c_str());
        }
    }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

bool
sameSession(const core::SessionResult &a, const core::SessionResult &b)
{
    // SessionStats is all 8-byte fields: memcmp is a bitwise compare.
    static_assert(sizeof(core::SessionStats) % 8 == 0);
    double ea = a.report.total(), eb = b.report.total();
    return std::memcmp(&a.stats, &b.stats, sizeof(a.stats)) == 0 &&
           std::memcmp(&ea, &eb, sizeof(ea)) == 0;
}

/** FNV-1a over the simulated outputs of a batch. */
class Digest
{
  public:
    void bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; ++i)
            h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
    void value(double v) { bytes(&v, sizeof(v)); }
    void value(uint64_t v) { bytes(&v, sizeof(v)); }
    void session(const core::SessionResult &r)
    {
        bytes(&r.stats, sizeof(r.stats));
        value(r.report.total());
    }
    uint64_t get() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ------------------------------------------------------ accumulators

/**
 * Raw per-layer sums of one phase (a set-up or a batch): host
 * seconds of each timed layer call, the work counts behind them,
 * and values harvested from the phase's obs::Registry.
 */
using Acc = std::map<std::string, double>;

void
addAll(Acc &into, const Acc &from, double scale)
{
    for (const auto &[k, v] : from)
        into[k] += v * scale;
}

double
timerSum(const obs::Registry &reg, const std::string &suffix)
{
    double s = 0.0;
    for (const auto &[name, summary] : reg.timers())
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            s += summary.sum();
    return s;
}

/** Copy what the per-layer report needs out of a phase's registry. */
void
harvest(const obs::Registry &reg, Acc &acc)
{
    acc["ml.train_s"] += timerSum(reg, ".select.train");
    acc["ml.holdout_s"] += timerSum(reg, ".select.holdout");
    acc["ml.pfi_s"] += timerSum(reg, ".select.pfi");
    acc["ml.pfi_tasks"] += reg.counterValue("shrink.pfi.tasks");
    acc["ml.pfi_refreshes"] +=
        reg.counterValue("shrink.select.pfi_refreshes");
    acc["ml.types_deployed"] +=
        reg.counterValue("shrink.types_deployed");
    acc["lookup.hits"] += reg.counterValue("lookup.hits");
    acc["lookup.lookups"] += reg.counterValue("lookup.lookups");
    if (const util::Summary *s = reg.findTimer("span.learn.epoch")) {
        acc["learn.epoch_s"] += s->sum();
        acc["learn.epoch_s_max"] += s->max();
        acc["learn.epoch_shrink_s"] +=
            timerSum(reg, "span.learn.epoch.shrink");
        acc["ml.shrink_s"] += timerSum(reg, "span.learn.epoch.shrink");
        acc["ml.shrink_s." + std::string(kLearnGame)] +=
            timerSum(reg, "span.learn.epoch.shrink");
        acc["learn.profile_records"] +=
            reg.gaugeValue("learn.profile_records");
    }
    acc["fleet.publishes"] += reg.counterValue("fleet.registry.publishes");
    acc["fleet.uploads"] += reg.counterValue("fleet.aggregate.uploads");
    acc["fleet.fallbacks"] += reg.counterValue("fleet.ota.fallbacks");
    acc["fleet.uploads_dropped"] +=
        reg.counterValue("fleet.aggregate.dropped");
}

// ------------------------------------------------------ layer calls

/** Everything one record -> replay -> Shrink -> pack -> deploy makes. */
struct Chain {
    trace::EventTrace trace;
    core::SnipModel built;
    std::shared_ptr<util::ByteBuffer> pkg;
    core::SnipModel deployed;
};

core::SessionResult
playSession(games::Game &game, core::Scheme &scheme,
            const core::SimulationConfig &cfg, const char *kind,
            Acc &acc)
{
    Clock::time_point t0 = Clock::now();
    core::SessionResult r = core::runSession(game, scheme, cfg);
    double s = since(t0);
    acc["session.s"] += s;
    acc["session.events"] += static_cast<double>(r.stats.events);
    acc[std::string(kind) + ".s"] += s;
    acc[std::string(kind) + ".events"] +=
        static_cast<double>(r.stats.events);
    return r;
}

/** Record a baseline session and replay it into a profile. */
trace::Profile
recordAndReplay(games::Game &game, games::Game &emulator,
                const core::SimulationConfig &cfg, Acc &acc,
                trace::EventTrace *kept)
{
    core::SimulationConfig rc = cfg;
    rc.record_events = true;
    core::BaselineScheme baseline;
    core::SessionResult rec =
        playSession(game, baseline, rc, "record", acc);

    Clock::time_point t0 = Clock::now();
    trace::Profile profile = trace::Replayer::replay(rec.trace, emulator);
    acc["replay.s"] += since(t0);
    acc["replay.events"] += static_cast<double>(rec.trace.events.size());
    if (kept)
        *kept = std::move(rec.trace);
    return profile;
}

Chain
deployChain(games::Game &game, games::Game &emulator, uint64_t seed,
            size_t gi, double profile_s, obs::Registry *reg, Acc &acc,
            Checks &checks)
{
    Chain c;
    Clock::time_point t_chain = Clock::now();
    core::SimulationConfig rc;
    rc.duration_s = profile_s;
    rc.seed = seedFor(seed, kProfileSeed, gi);
    rc.obs = reg;
    trace::Profile profile =
        recordAndReplay(game, emulator, rc, acc, &c.trace);

    core::SnipConfig sc;
    sc.seed = seedFor(seed, kShrinkSeed);
    sc.threads = kWorkers;
    sc.overrides.force_keep = game.params().recommended_overrides;
    sc.obs = reg;
    Clock::time_point t0 = Clock::now();
    c.built = core::buildSnipModel(profile, emulator, sc);
    double shrink_s = since(t0);
    acc["ml.shrink_s"] += shrink_s;
    acc["ml.shrink_s." + game.name()] += shrink_s;

    c.pkg = std::make_shared<util::ByteBuffer>();
    t0 = Clock::now();
    core::packModel(c.built, *c.pkg);
    acc["codec.pack_s"] += since(t0);
    acc["codec.package_bytes"] += static_cast<double>(c.pkg->size());

    t0 = Clock::now();
    util::Result<core::SnipModel> d = core::deployModel(c.pkg);
    acc["codec.deploy_s"] += since(t0);
    checks.expect(d.ok(), game.name() + ": deployModel accepts its "
                                        "own package");
    if (d.ok())
        c.deployed = std::move(d.value());
    acc["deploy_s"] += since(t_chain);
    return c;
}

/** pack -> unpack -> pack reproduces the package byte for byte. */
bool
repacksIdentically(const util::ByteBuffer &pkg)
{
    util::ByteBuffer copy = pkg;
    copy.rewind();
    util::Result<core::SnipModel> m = core::unpackModel(copy);
    if (!m.ok())
        return false;
    util::ByteBuffer again;
    core::packModel(m.value(), again);
    return again.data() == pkg.data();
}

/**
 * Output checks of one deploy chain: its package repacks byte for
 * byte, and a SNIP session on the deployed model is bitwise-equal to
 * one on the in-memory frozen model.
 */
void
checkChain(Chain &ch, games::Game &game, const core::SimulationConfig &cfg,
           Checks &c)
{
    c.expect(repacksIdentically(*ch.pkg),
             game.name() + ": pack->unpack->pack identical");
    core::SnipScheme on_deployed(
        static_cast<const core::SnipModel &>(ch.deployed));
    core::SessionResult rd = core::runSession(game, on_deployed, cfg);
    ch.built.freeze();
    core::SnipScheme in_memory(ch.built);
    c.expect(sameSession(core::runSession(game, in_memory, cfg), rd),
             game.name() + ": deployed model plays bitwise like the "
                           "in-memory model");
}

/** Overlay and frozen-table sizes of a SNIP scheme after a session. */
void
recordTables(const core::SnipScheme &snip, const std::string &game,
             Acc &acc)
{
    const core::FrozenTable &frozen = snip.frozen();
    double overlay_entries = static_cast<double>(snip.overlayEntries());
    double frozen_bytes = static_cast<double>(frozen.totalBytes());
    double overlay_bytes =
        static_cast<double>(snip.deployedTableBytes()) -
        (snip.frozenActive() ? frozen_bytes : 0.0);
    acc["overlay.entries"] += overlay_entries;
    acc["overlay.bytes"] += overlay_bytes;
    acc["frozen.entries"] += static_cast<double>(frozen.entryCount());
    acc["frozen.bytes"] += frozen_bytes;
    acc["overlay.entries." + game] += overlay_entries;
    acc["frozen.entries." + game] +=
        static_cast<double>(frozen.entryCount());
}

/** Host ns per Game::process call over a recorded trace. */
double
processNsPerEvent(const trace::EventTrace &trace, games::Game &game)
{
    game.reset();
    double busy = 0.0;
    for (const events::EventObject &ev : trace.events) {
        Clock::time_point t0 = Clock::now();
        games::HandlerExecution ex = game.process(ev);
        busy += since(t0);
        game.applyOutputs(ex.outputs);
    }
    return ratio(busy * 1e9, static_cast<double>(trace.events.size()));
}

// ---------------------------------------------------------- batches

/**
 * What one batch reports; `digest` covers its simulated outputs.
 * The timed work is split into fixed segments (one per game, or per
 * relearn_fleet lineage) so a run can take each segment's fastest
 * time over batches. Load from other tenants of a shared host only
 * ever adds time, and it comes and goes within a run: the fastest
 * sample is the steadiest estimate of the work's own cost.
 */
struct Batch {
    std::vector<double> segments;
    /** Host seconds spent inside runSession, per segment. */
    std::vector<double> session_segments;
    double energy_savings = 0.0;
    double coverage = 0.0;
    double error_rate = 0.0;
    double package_bytes = 0.0;
    uint64_t digest = 0;
    Acc acc;

    /** Close the segment that started at @p t and start the next. */
    void lap(Clock::time_point &t)
    {
        lapAt(t, Clock::now());
        t = Clock::now();
    }
    /** Close the segment that started at @p t at @p end. */
    void lapAt(Clock::time_point &t, Clock::time_point end)
    {
        segments.push_back(std::chrono::duration<double>(end - t).count());
        double in_sessions = acc["session.s"];
        session_segments.push_back(in_sessions - sessions_closed_);
        sessions_closed_ = in_sessions;
        t = end;
    }
    double wall() const
    {
        double s = 0.0;
        for (double x : segments)
            s += x;
        return s;
    }

  private:
    double sessions_closed_ = 0.0;
};

/** 1 - E_snip / E_baseline of a session pair at the same seed. */
double
savings(const core::SessionResult &base, const core::SessionResult &snip,
        Acc &acc)
{
    acc["lookup.bytes"] += static_cast<double>(snip.stats.lookup_bytes);
    acc["lookup.candidates"] +=
        static_cast<double>(snip.stats.lookup_candidates);
    return 1.0 - snip.report.total() / base.report.total();
}

/** Accumulates the SNIP-vs-Baseline outcome of session pairs. */
struct PairTotals {
    double savings = 0.0;
    uint64_t pairs = 0;
    uint64_t instr_total = 0, instr_skipped = 0;
    uint64_t fields_total = 0, fields_wrong = 0;

    void add(const core::SessionResult &base,
             const core::SessionResult &snip, Acc &acc)
    {
        savings += ::savings(base, snip, acc);
        ++pairs;
        instr_total += snip.stats.instr_total;
        instr_skipped += snip.stats.instr_skipped;
        fields_total += snip.stats.output_fields_total;
        fields_wrong += snip.stats.output_fields_wrong;
    }
    void into(Batch &b) const
    {
        b.energy_savings = ratio(savings, static_cast<double>(pairs));
        b.coverage = ratio(static_cast<double>(instr_skipped),
                           static_cast<double>(instr_total));
        b.error_rate = ratio(static_cast<double>(fields_wrong),
                             static_cast<double>(fields_total));
    }
};

/** A workload: set-up once per repetition, then repeated batches. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build what the timed section needs (timed as setup_s). */
    virtual void setup(obs::Registry *reg, Acc &acc, Checks &c) = 0;
    /** One batch; output checks may run outside its segments. */
    virtual Batch batch(obs::Registry *reg, Checks &c) = 0;
    /** Output checks on the first batch (untimed). */
    virtual void verify(Checks &c) = 0;
    /** Traced-run extras measured outside any batch. */
    virtual void extras(Acc &acc) = 0;
};

/** The seven games plus an emulator instance of each for replay. */
struct Catalog {
    std::vector<std::unique_ptr<games::Game>> games, emulators;
    Catalog()
        : games(games::makeAllGames()), emulators(games::makeAllGames())
    {}
};

core::SimulationConfig
sessionConfig(uint64_t seed, size_t gi, double secs, obs::Registry *reg)
{
    core::SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.seed = seedFor(seed, kSessionSeed, gi);
    cfg.obs = reg;
    return cfg;
}

class CatalogDeploy : public Workload
{
  public:
    CatalogDeploy(const Args &a, const Sizes &s) : a_(a), s_(s) {}

    void setup(obs::Registry *, Acc &, Checks &) override
    {
        cat_ = std::make_unique<Catalog>();
    }

    Batch batch(obs::Registry *reg, Checks &checks) override
    {
        Batch b;
        Digest dig;
        PairTotals pairs;
        bool first = chains_.empty();
        Clock::time_point t0 = Clock::now();
        for (size_t gi = 0; gi < cat_->games.size(); ++gi) {
            games::Game &game = *cat_->games[gi];
            Chain c = deployChain(game, *cat_->emulators[gi], a_.seed, gi,
                                  s_.profile_s, reg, b.acc, checks);
            core::SimulationConfig cfg =
                sessionConfig(a_.seed, gi, s_.short_s, reg);
            core::BaselineScheme base;
            core::SessionResult rb =
                playSession(game, base, cfg, "baseline", b.acc);
            core::SnipScheme snip(
                static_cast<const core::SnipModel &>(c.deployed));
            core::SessionResult rs =
                playSession(game, snip, cfg, "snip", b.acc);
            recordTables(snip, game.name(), b.acc);
            pairs.add(rb, rs, b.acc);
            b.lap(t0);
            b.package_bytes += static_cast<double>(c.pkg->size());
            dig.bytes(c.pkg->data().data(), c.pkg->size());
            dig.session(rb);
            dig.session(rs);
            if (first)
                chains_.push_back(std::move(c));
            t0 = Clock::now();
        }
        pairs.into(b);
        b.digest = dig.get();
        return b;
    }

    void verify(Checks &c) override
    {
        for (size_t gi = 0; gi < chains_.size(); ++gi)
            checkChain(chains_[gi], *cat_->games[gi],
                       sessionConfig(a_.seed, gi, s_.short_s, nullptr), c);
    }

    void extras(Acc &acc) override
    {
        // Shrink of the same profiles at every core vs one worker:
        // context for a future parallel workload, not an end-to-end
        // claim (the timed sections all run at one worker).
        unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
        double one = 0.0, all = 0.0;
        for (size_t gi = 0; gi < chains_.size(); ++gi) {
            games::Game &emu = *cat_->emulators[gi];
            trace::Profile profile =
                trace::Replayer::replay(chains_[gi].trace, emu);
            core::SnipConfig sc;
            sc.seed = seedFor(a_.seed, kShrinkSeed);
            sc.overrides.force_keep =
                cat_->games[gi]->params().recommended_overrides;
            for (unsigned w : {1u, nproc}) {
                sc.threads = w;
                Clock::time_point t0 = Clock::now();
                core::buildSnipModel(profile, emu, sc);
                (w == 1 ? one : all) += since(t0);
            }
            acc["process.ns"] +=
                processNsPerEvent(chains_[gi].trace, emu) /
                static_cast<double>(chains_.size());
        }
        acc["shrink_speedup_nproc"] = ratio(one, all);
    }

  private:
    Args a_;
    Sizes s_;
    std::unique_ptr<Catalog> cat_;
    std::vector<Chain> chains_;
};

class LongPlay : public Workload
{
  public:
    LongPlay(const Args &a, const Sizes &s) : a_(a), s_(s) {}

    void setup(obs::Registry *reg, Acc &acc, Checks &c) override
    {
        cat_ = std::make_unique<Catalog>();
        chains_.clear();
        Digest dig;
        for (size_t gi = 0; gi < cat_->games.size(); ++gi) {
            chains_.push_back(deployChain(*cat_->games[gi],
                                          *cat_->emulators[gi], a_.seed,
                                          gi, s_.profile_s, reg, acc, c));
            dig.bytes(chains_.back().pkg->data().data(),
                      chains_.back().pkg->size());
        }
        if (setups_++ > 0)
            c.expect(dig.get() == setup_digest_,
                     "set-up rebuilds identical packages");
        setup_digest_ = dig.get();
    }

    Batch batch(obs::Registry *reg, Checks &checks) override
    {
        Batch b;
        Digest dig;
        PairTotals pairs;
        Clock::time_point t0 = Clock::now();
        for (size_t gi = 0; gi < chains_.size(); ++gi) {
            games::Game &game = *cat_->games[gi];
            core::SimulationConfig cfg =
                sessionConfig(a_.seed, gi, s_.long_s, reg);
            core::BaselineScheme base;
            core::SessionResult rb =
                playSession(game, base, cfg, "baseline", b.acc);
            const core::SnipModel &deployed = chains_[gi].deployed;
            core::SnipScheme snip(deployed);
            core::SessionResult rs =
                playSession(game, snip, cfg, "snip", b.acc);
            recordTables(snip, game.name(), b.acc);
            pairs.add(rb, rs, b.acc);
            b.lap(t0);
            b.package_bytes += static_cast<double>(chains_[gi].pkg->size());
            dig.session(rb);
            dig.session(rs);
            t0 = Clock::now();
        }
        if (reg)
            checks.expect(reg->findTimer("span.shrink") == nullptr,
                          "long_play's timed section runs no Shrink");
        pairs.into(b);
        b.digest = dig.get();
        return b;
    }

    void verify(Checks &c) override
    {
        for (size_t gi = 0; gi < chains_.size(); ++gi)
            checkChain(chains_[gi], *cat_->games[gi],
                       sessionConfig(a_.seed, gi, s_.check_s, nullptr), c);
    }

    void extras(Acc &acc) override
    {
        for (size_t gi = 0; gi < chains_.size(); ++gi)
            acc["process.ns"] +=
                processNsPerEvent(chains_[gi].trace,
                                  *cat_->emulators[gi]) /
                static_cast<double>(chains_.size());
    }

  private:
    Args a_;
    Sizes s_;
    std::unique_ptr<Catalog> cat_;
    std::vector<Chain> chains_;
    int setups_ = 0;
    uint64_t setup_digest_ = 0;
};

class RelearnFleet : public Workload
{
  public:
    RelearnFleet(const Args &a, const Sizes &s) : a_(a), s_(s) {}

    void setup(obs::Registry *, Acc &, Checks &) override
    {
        game_ = games::makeGame(kLearnGame);
        replica_ = games::makeGame(kLearnGame);
        emulator_ = games::makeGame(kLearnGame);
    }

    Batch batch(obs::Registry *reg, Checks &checks) override
    {
        // Selection makes a lineage's head package land in one of a few
        // size clusters, and about one lineage in twelve lands far from
        // the rest (twice the bytes, a quarter of the savings): the
        // median over lineages reports the typical lineage.
        Batch b;
        Digest dig;
        std::vector<double> save, cov, err, bytes;
        bool first = played_.events.empty();
        Clock::time_point t_seg = Clock::now();
        for (int r = 0; r < s_.rounds; ++r) {
            Round round = play(static_cast<uint64_t>(r), reg, b, t_seg);
            save.push_back(savings(round.head_base, round.head_snip, b.acc));
            double e_sum = 0.0;
            for (const core::EpochResult &e : round.epochs) {
                e_sum += e.error_field_rate;
                dig.value(e.error_field_rate);
                dig.value(e.coverage);
                dig.value(e.energy_j);
                dig.value(e.payload_bytes);
            }
            double n = static_cast<double>(round.epochs.size());
            err.push_back(ratio(e_sum, n));
            cov.push_back(round.head_snip.stats.coverageInstr());
            bytes.push_back(static_cast<double>(round.head_bytes));
            dig.value(round.push.delta_bytes);
            dig.value(round.push.staleness_skew);
            dig.value(round.aggregate_entries);
            dig.session(round.head_base);
            dig.session(round.head_snip);
            // Check the first batch's lineages here, outside the
            // segments, so their registries need not outlive the round.
            if (first)
                verifyRound(round, static_cast<size_t>(r), checks);
            if (first && r == 0)
                played_ = std::move(round.played);
            t_seg = Clock::now();
        }
        b.energy_savings = median(save);
        b.coverage = median(cov);
        b.error_rate = mean(err);
        b.package_bytes = median(bytes);
        b.digest = dig.get();
        return b;
    }

    void verify(Checks &) override {}

    void extras(Acc &acc) override
    {
        acc["process.ns"] += processNsPerEvent(played_, *emulator_);
        acc["epoch_s"] = median(epoch_samples_);
        acc["epoch_s.samples"] = static_cast<double>(epoch_samples_.size());
    }

  private:
    /** One learner lineage, its fleet push and its device side. */
    struct Round {
        std::unique_ptr<fleet::ModelRegistry> registry;
        std::vector<core::EpochResult> epochs;
        fleet::EpochPushReport push;
        fleet::AggregateStats agg;
        size_t uploads = 0;
        uint64_t aggregate_entries = 0;
        uint64_t head_bytes = 0;
        util::ByteBuffer repacked;
        trace::EventTrace played;
        core::SessionResult head_base, head_snip;
    };

    /**
     * Play lineage @p r, closing a segment of @p b at every epoch's
     * publish and after every later layer call: short segments let
     * the fastest-over-batches estimate dodge brief host load.
     */
    Round play(uint64_t r, obs::Registry *reg, Batch &b,
               Clock::time_point &t_seg)
    {
        Round out;
        Acc &acc = b.acc;

        // ---- continuous learning, publishing every epoch
        out.registry = std::make_unique<fleet::ModelRegistry>(reg);
        core::LearningConfig lc;
        lc.epochs = s_.epochs;
        lc.session_s = s_.epoch_s;
        lc.sim.seed = seedFor(a_.seed, kLearnSeed, r);
        lc.snip.seed = seedFor(a_.seed, kShrinkSeed, r);
        lc.snip.threads = kWorkers;
        lc.obs = reg;
        fleet::bindLearner(lc, *out.registry, kLearnGame);
        std::function<void(const util::ByteBuffer &)> publish =
            lc.on_publish;
        std::vector<Clock::time_point> stamps;
        lc.on_publish = [&](const util::ByteBuffer &pkg) {
            Clock::time_point t0 = Clock::now();
            stamps.push_back(t0);
            publish(pkg);
            acc["fleet.publish_s"] += since(t0);
        };
        core::ContinuousLearner learner(*game_, *replica_, lc);
        out.epochs = learner.run();
        Clock::time_point t_end = Clock::now();
        for (Clock::time_point stamp : stamps)
            b.lapAt(t_seg, stamp);
        b.lapAt(t_seg, t_end);
        for (size_t i = 1; i < stamps.size(); ++i)
            epoch_samples_.push_back(
                std::chrono::duration<double>(stamps[i] - stamps[i - 1])
                    .count());
        acc["learn.epochs"] += static_cast<double>(out.epochs.size());

        // ---- delta OTA push of the head to the default cohorts
        fleet::FleetSimConfig fc;
        fc.game = kLearnGame;
        fc.threads = kWorkers;
        fc.seed = seedFor(a_.seed, kFleetSeed, r);
        fc.obs = reg;
        Clock::time_point t0 = Clock::now();
        util::Result<fleet::EpochPushReport> pushed =
            fleet::pushEpoch(*out.registry, fc);
        acc["fleet.push_s"] += since(t0);
        b.lap(t_seg);
        const fleet::ModelVersion *head = out.registry->head(kLearnGame);
        if (!pushed.ok() || !head)
            util::fatal("loopbench: push failed: %s",
                        pushed.status().message().c_str());
        out.push = pushed.value();
        acc["fleet.ota_bytes"] += static_cast<double>(out.push.delta_bytes);
        acc["fleet.full_bytes"] += static_cast<double>(out.push.full_bytes);
        acc["fleet.devices"] += static_cast<double>(out.push.devices);

        // ---- devices: decode the agreed head, record uploads,
        // aggregate them back in the cloud
        const util::ByteBuffer &head_pkg = *head->package;
        out.head_bytes = head_pkg.size();
        util::ByteBuffer copy = head_pkg;
        util::Result<core::SnipModel> agreed = core::unpackModel(copy);
        if (!agreed.ok())
            util::fatal("loopbench: head does not unpack: %s",
                        agreed.status().message().c_str());
        t0 = Clock::now();
        std::vector<util::ByteBuffer> uploads = fleet::recordUploadPayloads(
            kLearnGame, agreed.value(), s_.uploads,
            seedFor(a_.seed, kUploadSeed, r), s_.upload_s, kWorkers);
        acc["fleet.record_uploads_s"] += since(t0);
        b.lap(t_seg);
        out.uploads = uploads.size();
        core::MemoTable dest(game_->schema());
        for (const core::TypeModel &t : agreed.value().types)
            dest.setSelected(t.type, t.selection.selected);
        fleet::AggregateConfig ac;
        ac.threads = kWorkers;
        ac.obs = reg;
        t0 = Clock::now();
        out.agg = fleet::aggregateUploads(dest, uploads, ac);
        acc["fleet.aggregate_s"] += since(t0);
        out.aggregate_entries = dest.entryCount();
        b.lap(t_seg);

        // ---- one device plays the head package
        t0 = Clock::now();
        core::packModel(agreed.value(), out.repacked);
        acc["codec.pack_s"] += since(t0);
        t0 = Clock::now();
        util::Result<core::SnipModel> deployed =
            core::deployModel(std::make_shared<util::ByteBuffer>(head_pkg));
        acc["codec.deploy_s"] += since(t0);
        if (!deployed.ok())
            util::fatal("loopbench: head does not deploy: %s",
                        deployed.status().message().c_str());
        acc["codec.package_bytes"] += static_cast<double>(head_pkg.size());
        b.lap(t_seg);
        core::SimulationConfig cfg =
            sessionConfig(a_.seed, r, s_.head_play_s, reg);
        recordAndReplay(*game_, *emulator_, cfg, acc, &out.played);
        b.lap(t_seg);
        core::BaselineScheme base;
        out.head_base = playSession(*game_, base, cfg, "baseline", acc);
        b.lap(t_seg);
        const core::SnipModel &head_model = deployed.value();
        core::SnipScheme snip(head_model);
        out.head_snip = playSession(*game_, snip, cfg, "snip", acc);
        b.lap(t_seg);
        recordTables(snip, kLearnGame, acc);
        return out;
    }

    void verifyRound(Round &round, size_t r, Checks &c)
    {
        std::string tag = "round " + std::to_string(r) + ": ";
        c.expect(!round.epochs.empty() &&
                     round.epochs.back().rejected_packages == 0,
                 tag + "learn.rejected_packages is 0");
        fleet::ModelRegistry &reg = *round.registry;
        c.expect(reg.versionCount(kLearnGame) ==
                     static_cast<size_t>(s_.epochs),
                 tag + "bindLearner published one version per epoch");
        const fleet::ModelVersion *head = reg.head(kLearnGame);
        for (const fleet::CohortReport &cr : round.push.cohorts) {
            if (!cr.used_delta)
                continue;
            const fleet::ModelVersion *base =
                reg.behindHead(kLearnGame, cr.versions_behind);
            bool ok = base != nullptr;
            if (ok) {
                auto patch = reg.delta(kLearnGame, base->id, head->id);
                ok = patch.ok();
                if (ok) {
                    util::ByteBuffer p = *patch.value();
                    p.rewind();
                    util::Result<util::ByteBuffer> rebuilt =
                        fleet::applyPatch(base->package->data(), p);
                    ok = rebuilt.ok() &&
                         rebuilt.value().data() == head->package->data();
                }
            }
            c.expect(ok, tag + "cohort " + cr.name +
                             ": delta patch reconstructs the head");
        }
        c.expect(round.agg.dropped == 0 && round.agg.uploads == round.uploads,
                 tag + "aggregateUploads drops no upload");
        c.expect(round.repacked.data() == head->package->data(),
                 tag + "head pack->unpack->pack identical");
        util::ByteBuffer copy = *head->package;
        util::Result<core::SnipModel> in_memory = core::unpackModel(copy);
        bool same = in_memory.ok();
        if (same) {
            in_memory.value().freeze();
            core::SnipScheme snip(in_memory.value());
            core::SimulationConfig cfg =
                sessionConfig(a_.seed, r, s_.head_play_s, nullptr);
            same = sameSession(core::runSession(*game_, snip, cfg),
                               round.head_snip);
        }
        c.expect(same, tag + "head: deployed model plays bitwise like "
                             "the in-memory model");
    }

    Args a_;
    Sizes s_;
    std::unique_ptr<games::Game> game_, replica_, emulator_;
    trace::EventTrace played_;
    std::vector<double> epoch_samples_;
};

// ----------------------------------------------------------- report

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<Metric>
endToEnd(const std::vector<Batch> &batches, double setup_s)
{
    // Sum over segments of each segment's fastest time across batches.
    auto bestBatch = [&](std::vector<double> Batch::*field) {
        double total = 0.0;
        for (size_t i = 0; i < (batches.front().*field).size(); ++i) {
            double best = (batches.front().*field).at(i);
            for (const Batch &x : batches)
                best = std::min(best, (x.*field).at(i));
            total += best;
        }
        return total;
    };
    const Batch &b = batches.front();
    return {
        {"setup_s", setup_s, "s"},
        {"wall_s", bestBatch(&Batch::segments), "s"},
        {"events_per_s",
         ratio(b.acc.at("session.events"),
               bestBatch(&Batch::session_segments)),
         "events/s"},
        {"energy_savings", b.energy_savings, "ratio"},
        {"coverage_instr", b.coverage, "ratio"},
        {"package_bytes", b.package_bytes, "bytes"},
    };
}

std::vector<Metric>
perLayer(const Acc &A, double overhead)
{
    auto at = [&](const std::string &k) {
        auto it = A.find(k);
        return it == A.end() ? 0.0 : it->second;
    };
    auto nsPer = [&](const std::string &k) {
        return ratio(at(k + ".s") * 1e9, at(k + ".events"));
    };
    double snip_events = at("snip.events");
    std::vector<Metric> m = {
        {"trace.record_ns_per_event", nsPer("record"), "ns"},
        {"trace.replay_ns_per_event", nsPer("replay"), "ns"},
        {"ml.shrink_s", at("ml.shrink_s"), "s"},
    };
    for (const std::string &g : games::allGameNames())
        m.push_back({"ml.shrink_s." + g, at("ml.shrink_s." + g), "s"});
    std::vector<Metric> rest = {
        {"ml.shrink.train_s", at("ml.train_s"), "s"},
        {"ml.shrink.holdout_s", at("ml.holdout_s"), "s"},
        {"ml.shrink.pfi_s", at("ml.pfi_s"), "s"},
        {"ml.pfi_tasks", at("ml.pfi_tasks"), "count"},
        {"ml.pfi_refreshes", at("ml.pfi_refreshes"), "count"},
        {"ml.types_deployed", at("ml.types_deployed"), "count"},
        {"ml.shrink_speedup_nproc", at("shrink_speedup_nproc"), "ratio"},
        {"util.pool.tasks", at("pool.tasks"), "count"},
        {"util.pool.steals", at("pool.steals"), "count"},
        {"util.pool.park_ns", at("pool.park_ns"), "ns"},
        {"core.codec.pack_s", at("codec.pack_s"), "s"},
        {"core.codec.deploy_s", at("codec.deploy_s"), "s"},
        {"core.codec.package_bytes", at("codec.package_bytes"), "bytes"},
        {"core.session.baseline_ns_per_event", nsPer("baseline"), "ns"},
        {"games.process_ns_per_event", at("process.ns"), "ns"},
        {"core.session.snip_ns_per_event", nsPer("snip"), "ns"},
        {"core.scheme.ns_per_event", nsPer("snip") - nsPer("baseline"),
         "ns"},
        {"core.lookup.hit_rate",
         ratio(at("lookup.hits"), at("lookup.lookups")), "ratio"},
        {"core.lookup.bytes_per_event",
         ratio(at("lookup.bytes"), snip_events), "bytes"},
        {"core.lookup.candidates_per_event",
         ratio(at("lookup.candidates"), snip_events), "count"},
        {"core.overlay.entries_end", at("overlay.entries"), "count"},
        {"core.overlay.bytes_end", at("overlay.bytes"), "bytes"},
        {"core.frozen.entries", at("frozen.entries"), "count"},
        {"core.frozen.bytes", at("frozen.bytes"), "bytes"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const std::string &g : games::allGameNames()) {
        m.push_back({"core.overlay.entries_end." + g,
                     at("overlay.entries." + g), "count"});
        m.push_back({"core.frozen.entries." + g, at("frozen.entries." + g),
                     "count"});
    }
    rest = {
        {"core.learn.epoch_s_max", at("learn.epoch_s_max"), "s"},
        {"core.learn.shrink_share",
         ratio(at("learn.epoch_shrink_s"), at("learn.epoch_s")), "ratio"},
        {"core.learn.profile_records_end", at("learn.profile_records"),
         "count"},
        {"fleet.publishes", at("fleet.publishes"), "count"},
        {"fleet.publish_s", at("fleet.publish_s"), "s"},
        {"fleet.push_s", at("fleet.push_s"), "s"},
        {"fleet.delta_ratio",
         ratio(at("fleet.ota_bytes"), at("fleet.full_bytes")), "ratio"},
        {"fleet.fallbacks", at("fleet.fallbacks"), "count"},
        {"fleet.uploads", at("fleet.uploads"), "count"},
        {"fleet.record_uploads_s", at("fleet.record_uploads_s"), "s"},
        {"fleet.aggregate_s", at("fleet.aggregate_s"), "s"},
        {"fleet.uploads_dropped", at("fleet.uploads_dropped"), "count"},
        {"deploy_s", at("deploy_s"), "s"},
        {"epoch_s", at("epoch_s"), "s"},
        {"epoch_s.samples", at("epoch_s.samples"), "count"},
        {"ota_bytes_per_device",
         ratio(at("fleet.ota_bytes"), at("fleet.devices")), "bytes"},
        {"error_field_rate", at("error_field_rate"), "ratio"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"obs.overhead", overhead, "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

void
printResult(const Args &a, const std::vector<Metric> &metrics,
            const Checks &checks, size_t batches)
{
    std::printf("loopbench: workload=%s seed=%llu trace=%d batches=%zu "
                "nproc=%u workers=%u compiler=\"g++ %s\" build=%s\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
                batches, std::thread::hardware_concurrency(), kWorkers,
                __VERSION__, LOOPBENCH_BUILD_TYPE);
    for (const Metric &m : metrics)
        std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += checks.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted());
    json += ", \"failed\": " + std::to_string(checks.failed());
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    Clock::time_point t_start = Clock::now();
    Args a = parseArgs(argc, argv);
    // Cap every library parallel phase that takes its worker count
    // from the environment; the explicit threads fields set below
    // cover the rest.
    setenv("SNIP_THREADS", "1", 1);
    Sizes s = sizesFor(a);

    std::unique_ptr<Workload> w;
    if (a.workload == "catalog_deploy")
        w = std::make_unique<CatalogDeploy>(a, s);
    else if (a.workload == "long_play")
        w = std::make_unique<LongPlay>(a, s);
    else
        w = std::make_unique<RelearnFleet>(a, s);

    // Set up repeatedly and report the fastest, as for batches. A
    // cheap set-up repeats until a second is spent, so the samples
    // span more than one moment of the shared host's load.
    Checks checks;
    Acc setup_acc;
    std::vector<double> setup_times;
    for (double spent = 0.0;
         static_cast<int>(setup_times.size()) < s.setup_reps ||
         (spent < 1.0 && setup_times.size() < 10000);) {
        Clock::time_point t0 =
            setup_times.empty() ? t_start : Clock::now();
        obs::Registry reg;
        Acc acc;
        w->setup(a.trace ? &reg : nullptr, acc, checks);
        setup_times.push_back(since(t0));
        spent += setup_times.back();
        harvest(reg, acc);
        addAll(setup_acc, acc, 1.0);
    }

    // Timed section. Traced runs alternate untraced and traced
    // batches so obs.overhead compares like with like.
    std::vector<Batch> plain, traced;
    Clock::time_point t_timed = Clock::now();
    uint64_t first_digest = 0;
    for (size_t i = 0;; ++i) {
        bool with_obs = a.trace && i % 2 == 1;
        obs::Registry reg;
        Batch b = w->batch(with_obs ? &reg : nullptr, checks);
        harvest(reg, b.acc);
        std::fprintf(stderr, "loopbench: batch %zu%s: %.4f s in %zu "
                     "segments\n", i, with_obs ? " (traced)" : "",
                     b.wall(), b.segments.size());
        if (i == 0)
            first_digest = b.digest;
        checks.expect(b.digest == first_digest,
                      "batch " + std::to_string(i) +
                          " reproduces the first batch's outputs");
        (with_obs ? traced : plain).push_back(std::move(b));
        bool enough = plain.size() >= 3 && (!a.trace || traced.size() >= 2);
        if (since(t_timed) >= a.seconds && enough)
            break;
    }

    w->verify(checks);

    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = endToEnd(
            plain, *std::min_element(setup_times.begin(), setup_times.end()));
    } else {
        Acc total;
        addAll(total, setup_acc,
               1.0 / static_cast<double>(setup_times.size()));
        for (const Batch &b : traced)
            addAll(total, b.acc, 1.0 / static_cast<double>(traced.size()));
        w->extras(total);
        total["error_field_rate"] = traced.front().error_rate;
        obs::Registry pool;
        obs::exportTaskPoolStats(pool);
        total["pool.tasks"] = pool.gaugeValue("pool.tasks");
        total["pool.steals"] = pool.gaugeValue("pool.steals");
        total["pool.park_ns"] = pool.gaugeValue("pool.park_ns");
        std::vector<double> pw, tw;
        for (const Batch &b : plain)
            pw.push_back(b.wall());
        for (const Batch &b : traced)
            tw.push_back(b.wall());
        double overhead = median(tw) / median(pw) - 1.0;
        metrics = perLayer(total, overhead);
    }
    printResult(a, metrics, checks, plain.size() + traced.size());
    return checks.failed() == 0 ? 0 : 1;
}
