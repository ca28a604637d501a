#include "core/simulation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "core/output_diff.h"
#include "events/binder.h"
#include "events/sensor_manager.h"
#include "trace/recorder.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace core {

double
SessionStats::coverageInstr() const
{
    return instr_total
               ? static_cast<double>(instr_skipped) /
                     static_cast<double>(instr_total)
               : 0.0;
}

double
SessionStats::coverageIpWork() const
{
    return ip_work_total > 0 ? ip_work_skipped / ip_work_total : 0.0;
}

double
SessionStats::errorFieldRate() const
{
    return output_fields_total
               ? static_cast<double>(output_fields_wrong) /
                     static_cast<double>(output_fields_total)
               : 0.0;
}

namespace {

/**
 * Pre-resolved obs handles: name lookup happens once per session,
 * so each record point on the event path costs one null-check
 * branch when observability is off and a pointer bump when on.
 */
struct ObsHandles {
    obs::Counter *events = nullptr;
    obs::Counter *frames = nullptr;
    obs::Counter *useless = nullptr;
    obs::Counter *lookups = nullptr;
    obs::Counter *hits = nullptr;
    obs::Counter *misses = nullptr;
    obs::Counter *bytes = nullptr;
    obs::Counter *candidates = nullptr;
    obs::Counter *shortcircuit = nullptr;
    obs::Counter *full = nullptr;
    obs::Counter *audited = nullptr;
    obs::Counter *err_sc = nullptr;
    obs::Counter *err_temp = nullptr;
    obs::Counter *err_hist = nullptr;
    obs::Counter *err_ext = nullptr;
    util::Log2Histogram *bytes_hist = nullptr;
};

ObsHandles
resolveObs(obs::Registry *reg)
{
    ObsHandles oc;
    if (!reg)
        return oc;
    obs::Registry &r = *reg;
    oc.events = &r.counter("session.events");
    oc.frames = &r.counter("session.frames");
    oc.useless = &r.counter("session.useless_events");
    oc.lookups = &r.counter("lookup.lookups");
    oc.hits = &r.counter("lookup.hits");
    oc.misses = &r.counter("lookup.misses");
    oc.bytes = &r.counter("lookup.bytes");
    oc.candidates = &r.counter("lookup.candidates");
    oc.shortcircuit = &r.counter("decide.shortcircuit");
    oc.full = &r.counter("decide.full");
    oc.audited = &r.counter("decide.audited");
    oc.err_sc = &r.counter("decide.err.shortcircuits");
    oc.err_temp = &r.counter("decide.err.temp_only");
    oc.err_hist = &r.counter("decide.err.history");
    oc.err_ext = &r.counter("decide.err.extern");
    oc.bytes_hist = &r.histogram("lookup.bytes_hist");
    return oc;
}

/** The device a session charges and the accounting it keeps. */
struct SessionState {
    explicit SessionState(const soc::EnergyModel &model)
        : soc(model), sensorMgr(soc), binder(soc)
    {
    }
    // sensorMgr and binder hold references to soc.
    SessionState(const SessionState &) = delete;
    SessionState &operator=(const SessionState &) = delete;

    soc::Soc soc;
    events::SensorManager sensorMgr;
    events::BinderChannel binder;
    SessionStats stats;
    /** Per-IP last-use clock for the sleep policy. */
    std::array<double, soc::kNumIpKinds> ipLastUse{};
    ObsHandles oc;
    /** The current event and its ground truth; every event of the
     *  session reuses both buffers. */
    events::EventObject ev;
    games::HandlerExecution truth;
};

/**
 * Lookup-path cost model: big-core instructions per scanned byte
 * plus a fixed dispatch cost per event. Calibrated so the measured
 * SNIP overheads land on the paper's Fig. 11c range (~1-12% of
 * energy, avg ~3%).
 */
constexpr double kLookupInstrPerByte = 500.0;
constexpr uint64_t kLookupInstrBase = 4000;

/**
 * Deliver one event through the full path: framework dispatch, the
 * scheme's decision, then either the short-circuit (apply the
 * memoized outputs) or the handler's execution, charged to the SoC.
 */
void
processEvent(games::Game &game, Scheme &scheme, SessionState &s)
{
    SessionStats &st = s.stats;
    const ObsHandles &oc = s.oc;
    const events::EventObject &ev = s.ev;
    const games::HandlerExecution &truth = s.truth;
    double at = ev.timestamp;
    s.sensorMgr.deliver(ev);
    s.binder.transfer(ev);

    game.process(ev, s.truth);
    Decision d = scheme.decide(game, ev, truth);

    ++st.events;
    st.instr_total += truth.cpu_instructions;
    st.ip_work_total += truth.ipWorkUnits();
    st.output_fields_total +=
        static_cast<uint64_t>(truth.outputs.size());
    if (truth.useless)
        ++st.useless_events;

    if (oc.events) {
        oc.events->add(1);
        if (truth.useless)
            oc.useless->add(1);
        if (d.lookup_ran) {
            oc.lookups->add(1);
            (d.lookup_hit ? oc.hits : oc.misses)->add(1);
            oc.bytes->add(d.lookup_bytes);
            oc.candidates->add(d.lookup_candidates);
            oc.bytes_hist->add(static_cast<double>(d.lookup_bytes));
        }
        if (d.audited)
            oc.audited->add(1);
        else if (d.shortcircuit)
            oc.shortcircuit->add(1);
        else
            oc.full->add(1);
    }

    if (d.lookup_bytes > 0 && d.charge_lookup) {
        uint64_t instr =
            kLookupInstrBase +
            static_cast<uint64_t>(
                kLookupInstrPerByte *
                static_cast<double>(d.lookup_bytes));
        double before = s.soc.cpu().dynamicEnergy() +
                        s.soc.memory().dynamicEnergy();
        s.soc.executeCpu(instr, soc::CpuCluster::Big);
        s.soc.accessMemory(d.lookup_bytes);
        st.lookup_energy_j += s.soc.cpu().dynamicEnergy() +
                              s.soc.memory().dynamicEnergy() -
                              before;
    }
    st.lookup_bytes += d.lookup_bytes;
    st.lookup_candidates += d.lookup_candidates;

    if (d.shortcircuit) {
        ++st.shortcircuits;
        st.instr_skipped += truth.cpu_instructions;
        st.ip_work_skipped += truth.ipWorkUnits();
        game.applyOutputs(*d.outputs);
        OutputDiff diff =
            diffOutputs(*d.outputs, truth.outputs, game.schema());
        st.output_fields_wrong += diff.fields_wrong;
        if (diff.anyWrong()) {
            ++st.erroneous_shortcircuits;
            if (diff.wrong_extern)
                ++st.err_extern;
            else if (diff.wrong_history)
                ++st.err_history;
            else
                ++st.err_temp_only;
            if (oc.err_sc) {
                oc.err_sc->add(1);
                if (diff.wrong_extern)
                    oc.err_ext->add(1);
                else if (diff.wrong_history)
                    oc.err_hist->add(1);
                else
                    oc.err_temp->add(1);
            }
        }
        return;
    }

    // Full (or partially skipped) processing.
    uint64_t skipped = static_cast<uint64_t>(
        static_cast<double>(truth.cpu_instructions) *
        d.cpu_skip_fraction);
    st.instr_skipped += skipped;
    s.soc.executeCpu(truth.cpu_instructions - skipped,
                     soc::CpuCluster::Big);
    s.soc.accessMemory(truth.memory_bytes);
    if (d.skip_ips) {
        st.ip_work_skipped += truth.ipWorkUnits();
    } else {
        for (const auto &c : truth.ip_calls) {
            s.soc.invokeIp(c.kind, c.work_units);
            s.ipLastUse[static_cast<int>(c.kind)] = at;
        }
    }
    if (truth.useless)
        st.useless_instr_executed += truth.cpu_instructions - skipped;
    game.applyOutputs(truth.outputs);
    scheme.observe(truth);
}

}  // namespace

SessionResult
runSession(games::Game &game, Scheme &scheme,
           const SimulationConfig &cfg)
{
    if (!(std::isfinite(cfg.duration_s) && cfg.duration_s > 0))
        util::fatal("runSession: duration %f is not finite and "
                    "positive",
                    cfg.duration_s);

    game.reset();
    SessionState s(cfg.model);
    s.soc.setInUse(true);
    trace::EventRecorder recorder(game.name());
    if (cfg.record_events) {
        s.binder.setTap([&recorder](const events::EventObject &ev) {
            recorder.onEvent(ev);
        });
    }
    s.oc = resolveObs(cfg.obs);

    // Jittered periodic arrivals per mix entry.
    const games::GameParams &gp = game.params();
    const auto &mix = gp.mix;
    util::Rng rng(util::mixCombine(cfg.seed, util::fnv1a(game.name())));
    std::vector<double> next_at(mix.size());
    for (size_t i = 0; i < mix.size(); ++i)
        next_at[i] = rng.uniformReal() / mix[i].rate_hz;

    const double frame_dt = 1.0 / gp.frame_rate;
    const double timeout = scheme.ipSleepTimeout();
    double now = 0.0;
    while (now < cfg.duration_s) {
        double frame_end = std::min(now + frame_dt, cfg.duration_s);

        // This frame's events, in time order across mix entries.
        // Per event: makeEvent, then the arrival-jitter draw, then
        // delivery.
        for (;;) {
            size_t best = SIZE_MAX;
            for (size_t i = 0; i < mix.size(); ++i) {
                if (next_at[i] < frame_end &&
                    (best == SIZE_MAX || next_at[i] < next_at[best]))
                    best = i;
            }
            if (best == SIZE_MAX)
                break;
            game.makeEvent(mix[best].type, next_at[best], rng, s.ev);
            next_at[best] +=
                rng.uniformReal(0.7, 1.3) / mix[best].rate_hz;
            processEvent(game, scheme, s);
        }

        // Per-frame background load (composition, UI animation,
        // audio stream, game-loop tick on the little cluster).
        s.soc.invokeIp(soc::IpKind::Display, gp.frame_display_units);
        s.ipLastUse[static_cast<int>(soc::IpKind::Display)] = frame_end;
        if (gp.frame_gpu_units > 0) {
            s.soc.invokeIp(soc::IpKind::Gpu, gp.frame_gpu_units);
            s.ipLastUse[static_cast<int>(soc::IpKind::Gpu)] = frame_end;
        }
        if (gp.audio_units_per_s > 0) {
            s.soc.invokeIp(soc::IpKind::Audio,
                           gp.audio_units_per_s * frame_dt);
            s.ipLastUse[static_cast<int>(soc::IpKind::Audio)] =
                frame_end;
        }
        s.soc.executeCpu(
            static_cast<uint64_t>(gp.frame_cpu_minstr * 1e6),
            soc::CpuCluster::Little);

        // IP sleep policy: gate blocks idle longer than the scheme's
        // timeout. The display never gates while the screen is on.
        for (int k = 0; k < soc::kNumIpKinds; ++k) {
            auto kind = static_cast<soc::IpKind>(k);
            if (kind == soc::IpKind::Display)
                continue;
            if (frame_end - s.ipLastUse[k] > timeout)
                s.soc.ip(kind).setSleeping(true);
        }

        s.soc.advance(frame_end - now);
        now = frame_end;
        if (s.oc.frames)
            s.oc.frames->add(1);
    }

    const SessionStats &st = s.stats;
    SessionResult result{s.soc.report(), st, recorder.trace()};
    if (cfg.obs) {
        // End-of-session totals and derived rates. When registries
        // of several sessions are merged, counters stay additive;
        // the rate gauges are last-writer and should be recomputed
        // from the merged counters (see DESIGN.md).
        obs::Registry &r = *cfg.obs;
        r.counter("session.instr_total").add(st.instr_total);
        r.counter("session.instr_skipped").add(st.instr_skipped);
        r.counter("session.output_fields")
            .add(st.output_fields_total);
        r.counter("session.output_fields_wrong")
            .add(st.output_fields_wrong);
        r.gauge("session.duration_s").set(cfg.duration_s);
        r.gauge("session.energy_j").set(result.report.total());
        r.gauge("session.lookup_energy_j").set(st.lookup_energy_j);
        uint64_t hits = s.oc.hits->value();
        uint64_t looked = hits + s.oc.misses->value();
        r.gauge("session.hit_rate")
            .set(looked ? static_cast<double>(hits) /
                              static_cast<double>(looked)
                        : 0.0);
        r.gauge("session.error_field_rate").set(st.errorFieldRate());
        r.gauge("session.coverage_instr").set(st.coverageInstr());
    }
    return result;
}

util::Power
idlePhonePower(const soc::EnergyModel &model)
{
    // The paper's "idle phone" reference (~20 h) is a device that is
    // on — screen lit at the launcher, radios up — but not playing:
    // display refresh plus background OS work, no game processing.
    soc::Soc soc(model);
    soc.setInUse(true);
    for (int k = 0; k < soc::kNumIpKinds; ++k) {
        if (static_cast<soc::IpKind>(k) != soc::IpKind::Display)
            soc.ip(static_cast<soc::IpKind>(k)).setSleeping(true);
    }
    // One simulated minute of 60 fps launcher idling.
    const double frame_dt = 1.0 / 60.0;
    for (int f = 0; f < 3600; ++f) {
        soc.invokeIp(soc::IpKind::Display, 1.0);
        soc.executeCpu(1'500'000, soc::CpuCluster::Little);
        if (f % 30 == 0)
            soc.executeCpu(6'000'000, soc::CpuCluster::Little);
        soc.accessMemory(200'000);
        soc.advance(frame_dt);
    }
    return soc.report().averagePower();
}

}  // namespace core
}  // namespace snip
