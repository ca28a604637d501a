#include "obs/metrics.h"

#include "util/parallel.h"

namespace snip {
namespace obs {

namespace {

/**
 * Heterogeneous find-or-create: the std::string key is only
 * materialized on the first reference to a name.
 */
template <typename Map>
typename Map::mapped_type &
findOrCreate(Map &m, std::string_view name)
{
    auto it = m.find(name);
    if (it == m.end()) {
        it = m.emplace(std::string(name),
                       typename Map::mapped_type{}).first;
    }
    return it->second;
}

}  // namespace

Counter &
Registry::counter(std::string_view name)
{
    return findOrCreate(counters_, name);
}

Gauge &
Registry::gauge(std::string_view name)
{
    return findOrCreate(gauges_, name);
}

util::Summary &
Registry::timer(std::string_view name)
{
    return findOrCreate(timers_, name);
}

util::Log2Histogram &
Registry::histogram(std::string_view name)
{
    return findOrCreate(histograms_, name);
}

uint64_t
Registry::counterValue(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
Registry::gaugeValue(std::string_view name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second.value();
}

const util::Summary *
Registry::findTimer(std::string_view name) const
{
    auto it = timers_.find(name);
    return it == timers_.end() ? nullptr : &it->second;
}

const util::Log2Histogram *
Registry::findHistogram(std::string_view name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
Registry::merge(const Registry &other)
{
    for (const auto &[name, c] : other.counters_)
        counter(name).add(c.value());
    for (const auto &[name, g] : other.gauges_)
        gauge(name).set(g.value());
    for (const auto &[name, t] : other.timers_)
        timer(name).merge(t);
    for (const auto &[name, h] : other.histograms_)
        histogram(name).merge(h);
}

bool
Registry::empty() const
{
    return counters_.empty() && gauges_.empty() && timers_.empty() &&
           histograms_.empty();
}

void
exportTaskPoolStats(Registry &reg)
{
    util::ParallelStats s = util::parallelStats();
    reg.gauge("pool.threads_spawned")
        .set(static_cast<double>(s.threads_spawned));
    reg.gauge("pool.tasks").set(static_cast<double>(s.tasks));
}

}  // namespace obs
}  // namespace snip
