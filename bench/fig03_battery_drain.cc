/**
 * @file
 * Fig. 3: rampant battery drain — hours from a 100%-charged
 * 3450 mAh pack to empty for each game, plus the idle-phone
 * reference. Paper anchors: idle ~20 h, Colorphun ~8.5 h,
 * Race Kings ~3 h (6x faster than idle).
 */

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "soc/battery.h"
#include "util/csv_writer.h"
#include "util/parallel.h"
#include "util/table_printer.h"

using namespace snip;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    bench::printHeader("Fig. 3: battery drain",
                       "Fig. 3 — idle ~20 h, Colorphun ~8.5 h, "
                       "Race Kings ~3 h on a 3450 mAh pack");

    soc::EnergyModel model = soc::EnergyModel::snapdragon821();
    soc::Battery battery(model.battery_mah, model.battery_volts);

    util::TablePrinter table(
        {"workload", "avg power", "hours 100%->0%", "vs idle"});
    std::unique_ptr<util::CsvWriter> csv;
    std::ofstream csv_file;
    if (!opts.csv_path.empty()) {
        csv_file.open(opts.csv_path);
        csv = std::make_unique<util::CsvWriter>(
            csv_file, std::vector<std::string>{"workload", "power_w",
                                               "hours"});
    }

    util::Power idle_w = core::idlePhonePower(model);
    double idle_h = battery.hoursToEmpty(idle_w);
    table.addRow({"(idle phone)", util::formatPower(idle_w),
                  util::TablePrinter::num(idle_h, 1), "1.0x"});
    if (csv)
        csv->row({"idle", std::to_string(idle_w),
                  std::to_string(idle_h)});

    // One independent baseline session per game — run the whole
    // catalog in parallel, then print rows in catalog order.
    const auto &names = games::allGameNames();
    core::SimulationConfig cfg = bench::evalConfig(opts);
    cfg.duration_s = opts.profileSeconds() / 2;
    std::vector<util::Power> power(names.size());
    util::parallelFor(names.size(), [&](size_t i) {
        auto game = games::makeGame(names[i]);
        core::BaselineScheme baseline;
        power[i] = core::runSession(*game, baseline, cfg)
                       .report.averagePower();
    }, opts.threads);

    for (size_t i = 0; i < names.size(); ++i) {
        auto game = games::makeGame(names[i]);
        util::Power p = power[i];
        double h = battery.hoursToEmpty(p);
        char speedup[32];
        std::snprintf(speedup, sizeof(speedup), "%.1fx", idle_h / h);
        table.addRow({game->displayName(), util::formatPower(p),
                      util::TablePrinter::num(h, 1), speedup});
        if (csv)
            csv->row({names[i], std::to_string(p), std::to_string(h)});
    }
    table.print(std::cout);
    std::cout << "\npaper anchors: idle ~20 h; lightest game ~8.5 h; "
                 "heaviest ~3 h (~6x idle)\n";
    return 0;
}
