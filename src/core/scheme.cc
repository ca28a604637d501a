#include "core/scheme.h"

#include "util/logging.h"

namespace snip {
namespace core {

const char *
schemeName(SchemeKind k)
{
    switch (k) {
      case SchemeKind::Baseline: return "Baseline";
      case SchemeKind::MaxCpu: return "Max CPU";
      case SchemeKind::MaxIp: return "Max IP";
      case SchemeKind::Snip: return "SNIP";
      case SchemeKind::NoOverheads: return "No Overheads";
    }
    return "?";
}

Decision
BaselineScheme::decide(const games::Game &, const events::EventObject &,
                       const games::HandlerExecution &)
{
    return {};
}

Decision
MaxCpuScheme::decide(const games::Game &, const events::EventObject &,
                     const games::HandlerExecution &truth)
{
    Decision d;
    d.charge_lookup = false;
    if (seen_.count(truth.necessary_hash))
        d.cpu_skip_fraction = truth.maxcpu_fraction;
    return d;
}

void
MaxCpuScheme::observe(const games::HandlerExecution &truth)
{
    seen_.insert(truth.necessary_hash);
}

Decision
MaxIpScheme::decide(const games::Game &, const events::EventObject &ev,
                    const games::HandlerExecution &)
{
    Decision d;
    d.charge_lookup = false;
    // IP results (rendered tiles, decoded blocks) are reusable only
    // when the triggering event object repeats exactly. The insert
    // belongs to observe(), per the decide/observe protocol: decide()
    // only reads what earlier observed events taught it.
    pendingHash_ = events::hashFields(ev.fields);
    hasPending_ = true;
    if (seen_.count(pendingHash_))
        d.skip_ips = true;
    return d;
}

void
MaxIpScheme::observe(const games::HandlerExecution &)
{
    if (hasPending_) {
        seen_.insert(pendingHash_);
        hasPending_ = false;
    }
}

namespace {

/** The model's table; a model without one cannot be deployed. */
std::shared_ptr<const FrozenTable>
tableOf(const SnipModel &model)
{
    if (!model.table)
        util::fatal("SnipScheme: model has no table");
    return model.table;
}

}  // namespace

SnipScheme::SnipScheme(const SnipModel &model, SnipRuntimeConfig cfg,
                       bool charge_overheads)
    : cfg_(cfg), chargeOverheads_(charge_overheads),
      frozen_(tableOf(model)), overlay_(*frozen_)
{
    scratch_.values.reserve(frozen_->maxSelected());
    scratch_.present.reserve(frozen_->maxSelected());
    key_.slots.reserve(frozen_->maxSelected());
    key_.values.reserve(frozen_->maxSelected());
    outputs_.reserve(frozen_->maxOutputs());
    if (cfg_.obs) {
        obsAudits_ = &cfg_.obs->counter("decide.audits");
        obsAuditFailures_ =
            &cfg_.obs->counter("decide.audit_failures");
        obsTableClears_ = &cfg_.obs->counter("decide.table_clears");
        obsOnlineInserts_ =
            &cfg_.obs->counter("decide.online_inserts");
    }
}

Decision
SnipScheme::decide(const games::Game &game, const events::EventObject &ev,
                   const games::HandlerExecution &)
{
    Decision d;
    d.charge_lookup = chargeOverheads_;
    auditPending_ = false;
    d.lookup_ran = true;

    const FrozenTable &ft = *frozen_;
    const events::EventType type = ev.type;
    if (!ft.deployed(type))
        return d;

    // Frozen-first lookup with the overlay consulted only on a miss:
    // the scan of one table whose buckets hold the profile entries in
    // insertion order followed by the online-filled ones. The subkey
    // and the gathered inputs serve both probes, and their cost (the
    // type's selected bytes) is charged once.
    d.lookup_bytes = ft.selectedBytes(type);
    const uint64_t subkey = ft.gather(ev, game, scratch_);
    bool hit = false;
    if (frozenActive_) {
        BucketMatch m = ft.match(type, subkey, scratch_);
        d.lookup_bytes += m.bytes;
        d.lookup_candidates += m.candidates;
        if (m.hit()) {
            hit = true;
            ft.outputs(type, m.entry, outputs_);
        }
    }
    if (!hit) {
        BucketMatch m = overlay_.match(type, subkey, scratch_);
        d.lookup_bytes += m.bytes;
        d.lookup_candidates += m.candidates;
        if (m.hit()) {
            hit = true;
            overlay_.outputs(type, m.entry, outputs_);
        }
    }

    d.lookup_hit = hit;
    if (hit) {
        // Audit watchdog: periodically let a would-be hit run at
        // full cost so the table's output can be checked against
        // ground truth in observe().
        if (cfg_.audit_every > 0 &&
            ++hitCounter_ % cfg_.audit_every == 0) {
            auditPending_ = true;
            d.audited = true;
            return d;  // processed fully; observe() compares outputs_
        }
        d.shortcircuit = true;
        d.outputs = &outputs_;
    }
    return d;
}

void
SnipScheme::observe(const games::HandlerExecution &truth)
{
    if (auditPending_) {
        auditPending_ = false;
        ++auditsRun_;
        ++windowAudits_;
        if (obsAudits_)
            obsAudits_->add(1);
        if (outputs_ != truth.outputs) {
            ++auditsFailed_;
            ++windowFailures_;
            if (obsAuditFailures_)
                obsAuditFailures_->add(1);
        }
        if (windowAudits_ >= cfg_.audit_window) {
            double rate = static_cast<double>(windowFailures_) /
                          static_cast<double>(windowAudits_);
            if (rate > kAuditClearThreshold) {
                // Deactivate the immutable frozen layout and drop
                // the overlay's entries (its selections survive, so
                // online fill keeps working until the next
                // re-learn). The frozen arena itself is shared and
                // never mutated.
                frozenActive_ = false;
                overlay_.clear();
                ++tableClears_;
                if (obsTableClears_)
                    obsTableClears_->add(1);
                util::warn("snip watchdog: audited error rate %.1f%% "
                           "exceeded %.1f%%; table cleared",
                           rate * 100.0,
                           kAuditClearThreshold * 100.0);
            }
            windowAudits_ = 0;
            windowFailures_ = 0;
        }
    }
    // Skip entries the frozen table already memoizes (one table
    // would deduplicate them), so the overlay holds only genuinely
    // new observations. The counter tracks actual overlay growth,
    // not attempts.
    if (!overlay_.project(truth, key_) ||
        (frozenActive_ && frozen_->contains(key_)) ||
        !overlay_.insert(key_, truth.outputs))
        return;
    // Keep decide() allocation-free on hits of the widest entry.
    if (outputs_.capacity() < truth.outputs.size())
        outputs_.reserve(truth.outputs.size());
    if (obsOnlineInserts_)
        obsOnlineInserts_->add(1);
}

uint64_t
SnipScheme::deployedTableBytes() const
{
    uint64_t n = overlay_.totalBytes();
    if (frozenActive_)
        n += frozen_->totalBytes();
    return n;
}

void
SnipScheme::recordTableStats(obs::Registry &reg) const
{
    if (frozenActive_)
        frozen_->recordStats(reg);
    else
        overlay_.recordStats(reg);
    reg.gauge("table.overlay_entries")
        .set(static_cast<double>(overlay_.entryCount()));
    reg.gauge("table.overlay_bytes")
        .set(static_cast<double>(overlay_.totalBytes()));
}

std::unique_ptr<Scheme>
makeScheme(SchemeKind kind, const SnipModel *model)
{
    switch (kind) {
      case SchemeKind::Baseline:
        return std::make_unique<BaselineScheme>();
      case SchemeKind::MaxCpu:
        return std::make_unique<MaxCpuScheme>();
      case SchemeKind::MaxIp:
        return std::make_unique<MaxIpScheme>();
      case SchemeKind::Snip:
      case SchemeKind::NoOverheads:
        if (!model)
            util::fatal("makeScheme(%s) requires a SnipModel",
                        schemeName(kind));
        return std::make_unique<SnipScheme>(
            *model, SnipRuntimeConfig{},
            kind == SchemeKind::Snip);
    }
    util::panic("makeScheme: bad kind");
}

}  // namespace core
}  // namespace snip
