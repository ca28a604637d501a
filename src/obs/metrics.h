/**
 * @file
 * Runtime observability: a low-overhead metrics registry.
 *
 * The Deploy/continuous-learning loop (paper §4–5) is operated by
 * watching the deployed table's hit rate, erroneous-output rate, and
 * lookup overhead. obs::Registry is the single place those signals
 * accumulate: named monotonic counters, last-value gauges,
 * util::Summary timers (fed by obs::Span), and util::Log2Histogram
 * size spreads.
 *
 * Overhead contract: observability is disabled by default. Every
 * instrumented call site holds an `obs::Registry *` that is nullptr
 * unless the caller opted in, so the disabled hot path costs exactly
 * one predictable branch and zero allocations. Hot loops resolve
 * `Counter *` handles once up front (name lookup happens outside the
 * loop) and bump plain uint64_t fields inside it.
 *
 * Thread safety: a Registry is single-writer, like the rest of the
 * runtime's per-session state. Parallel phases (util::parallelFor
 * bodies) do not touch it; the caller records their totals after
 * the join — see computePfi for the canonical use.
 *
 * The metric namespace (dotted lower_snake segments: `lookup.*`,
 * `decide.*`, `session.*`, `span.shrink.*`, `learn.*`, `table.*`)
 * is documented in DESIGN.md.
 */

#ifndef SNIP_OBS_METRICS_H
#define SNIP_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/stats.h"

namespace snip {
namespace obs {

/**
 * Monotonic event count. References handed out by Registry stay
 * valid for the registry's lifetime (node-stable storage), so hot
 * paths resolve once and bump through the pointer.
 */
class Counter
{
  public:
    /** Increment by `by` (default 1). */
    void add(uint64_t by = 1) { value_ += by; }

    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/** Last-value instantaneous measurement (rates, sizes, joules). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }

    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Named metric registry. Metrics are created on first reference and
 * live as long as the registry; lookups by existing name allocate
 * nothing (heterogeneous string_view find).
 */
class Registry
{
  public:
    using CounterMap = std::map<std::string, Counter, std::less<>>;
    using GaugeMap = std::map<std::string, Gauge, std::less<>>;
    using TimerMap = std::map<std::string, util::Summary, std::less<>>;
    using HistogramMap =
        std::map<std::string, util::Log2Histogram, std::less<>>;

    /** Find-or-create; the returned reference is stable. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    /** Timers are Summaries of seconds, fed by obs::Span. */
    util::Summary &timer(std::string_view name);
    util::Log2Histogram &histogram(std::string_view name);

    /** Read a counter; 0 when absent. */
    uint64_t counterValue(std::string_view name) const;
    /** Read a gauge; 0.0 when absent. */
    double gaugeValue(std::string_view name) const;
    /** Read-only lookups; nullptr when absent. */
    const util::Summary *findTimer(std::string_view name) const;
    const util::Log2Histogram *
    findHistogram(std::string_view name) const;

    /**
     * Fold another registry into this one: counters sum, timers and
     * histograms merge, gauges take the other's value (last writer
     * wins — recompute derived rates after merging).
     */
    void merge(const Registry &other);

    /** True when no metric has been created. */
    bool empty() const;

    /** Ordered views for sinks. */
    const CounterMap &counters() const { return counters_; }
    const GaugeMap &gauges() const { return gauges_; }
    const TimerMap &timers() const { return timers_; }
    const HistogramMap &histograms() const { return histograms_; }

  private:
    CounterMap counters_;
    GaugeMap gauges_;
    TimerMap timers_;
    HistogramMap histograms_;
};

/**
 * Snapshot the util::parallelFor pool's lifetime totals
 * (util::parallelStats) into `reg` as the `pool.threads_spawned` and
 * `pool.tasks` gauges. Gauges (not counters) because the totals are
 * process-lifetime monotonic values, not per-phase deltas — call
 * this once per export, after any registry merging, so a merged
 * registry doesn't double-count them.
 */
void exportTaskPoolStats(Registry &reg);

}  // namespace obs
}  // namespace snip

#endif  // SNIP_OBS_METRICS_H
