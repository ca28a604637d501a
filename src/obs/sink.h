/**
 * @file
 * Export sinks for an obs::Registry snapshot: a JSON exporter
 * (machine-readable, consumed by tools/ci.sh and the bench
 * `--obs-json` flag) and a human-readable table via
 * util::TablePrinter (`snip stats`). Observability is switched off
 * with a null `Registry *` at the instrumentation site — see
 * obs/metrics.h for the overhead contract.
 */

#ifndef SNIP_OBS_SINK_H
#define SNIP_OBS_SINK_H

#include <ostream>
#include <string>

#include "obs/metrics.h"
#include "util/status.h"

namespace snip {
namespace obs {

/**
 * Writes one JSON object:
 * `{"counters": {...}, "gauges": {...}, "timers": {name:
 * {count,sum_s,mean_s,min_s,max_s}}, "histograms": {name:
 * {count, buckets: {"<lower-bound>": n}}}}`.
 * Non-finite gauge values serialize as 0 so the output always
 * parses.
 */
class JsonSink
{
  public:
    explicit JsonSink(std::ostream &os) : os_(os) {}

    /** Export the registry's current contents. */
    void write(const Registry &reg);

  private:
    std::ostream &os_;
};

/** Renders per-kind tables through util::TablePrinter. */
class TableSink
{
  public:
    explicit TableSink(std::ostream &os) : os_(os) {}

    /** Export the registry's current contents. */
    void write(const Registry &reg);

  private:
    std::ostream &os_;
};

/** The JsonSink output as a string. */
std::string toJson(const Registry &reg);

/** Write the JsonSink output to a file. */
util::Status writeJsonFile(const Registry &reg,
                           const std::string &path);

}  // namespace obs
}  // namespace snip

#endif  // SNIP_OBS_SINK_H
