/**
 * @file
 * Energy accounting summary for one simulated session: per-component
 * joules, the paper's four-group breakdown (sensors / memory / CPU /
 * IPs), average power, and battery-life projection.
 */

#ifndef SNIP_SOC_ENERGY_REPORT_H
#define SNIP_SOC_ENERGY_REPORT_H

#include <map>
#include <string>
#include <vector>

#include "util/units.h"

namespace snip {
namespace soc {

/** The paper's Fig. 2 component groups. */
enum class EnergyGroup {
    Sensors = 0,
    Memory,
    Cpu,
    Ips,
    Platform,  ///< Rest-of-system rails; excluded from Fig. 2 bars.
    NumGroups,
};

/** Display name of a group. */
const char *energyGroupName(EnergyGroup g);

/** Per-component entry in a report. */
struct ComponentEnergy {
    std::string name;
    EnergyGroup group;
    util::Energy dynamic_j = 0.0;
    util::Energy static_j = 0.0;

    util::Energy total() const { return dynamic_j + static_j; }
};

/** Immutable snapshot of a session's energy accounting. */
class EnergyReport
{
  public:
    /**
     * Empty placeholder report (no components, zero elapsed time)
     * so result slots can be pre-allocated and assigned later —
     * e.g. by util::parallelFor workers filling a result vector.
     */
    EnergyReport() = default;

    /**
     * @param components Per-component energies.
     * @param elapsed Simulated session length (s).
     */
    EnergyReport(std::vector<ComponentEnergy> components,
                 util::Time elapsed);

    /** Per-component entries. */
    const std::vector<ComponentEnergy> &components() const
    {
        return components_;
    }

    /** Simulated wall time of the session (s). */
    util::Time elapsed() const { return elapsed_; }

    /** Total energy across all components (J). */
    util::Energy total() const { return total_; }

    /** Energy of one group (J). */
    util::Energy groupEnergy(EnergyGroup g) const;

    /**
     * Fraction of the *SoC* energy (sensors+memory+cpu+ips, i.e.
     * excluding Platform) contributed by @p g, as plotted in Fig. 2.
     */
    double socGroupFraction(EnergyGroup g) const;

    /** Average whole-device power over the session (W). */
    util::Power averagePower() const;

    /** Render a human-readable multi-line breakdown. */
    std::string toString() const;

  private:
    std::vector<ComponentEnergy> components_;
    util::Time elapsed_ = 0.0;
    util::Energy total_ = 0.0;
    util::Energy group_[static_cast<int>(EnergyGroup::NumGroups)] = {};
};

}  // namespace soc
}  // namespace snip

#endif  // SNIP_SOC_ENERGY_REPORT_H
