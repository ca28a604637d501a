/**
 * @file
 * The sensor-level alternative the paper examines and rejects
 * (§II-C): running sensors in a low-fidelity mode saves sampling
 * energy, but sensors are < 10% of SoC energy to begin with, so
 * even a free halving of all sensor/sampling energy moves the
 * needle by well under a percent — whole-SoC event snipping is
 * where the energy is. This bench quantifies that argument.
 */

#include <iostream>

#include "bench/bench_common.h"
#include "util/parallel.h"
#include "util/table_printer.h"

using namespace snip;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Ablation: low-fidelity sensors vs SNIP",
        "§II-C — sensor-level optimization cannot matter; the "
        "energy is in the whole-SoC event processing");

    util::TablePrinter table({"game", "baseline", "low-fi sensors",
                              "sensor saving", "SNIP saving"});

    // Each game's profile + three evaluation sessions form one
    // independent task; the catalog runs in parallel.
    const auto &names = games::allGameNames();
    struct Row {
        std::string display;
        double e_base = 0.0, e_lofi = 0.0, e_snip = 0.0;
    };
    std::vector<Row> rows(names.size());
    util::parallelFor(names.size(), [&](size_t i) {
        bench::ProfiledGame pg = bench::profileGame(names[i], opts);
        core::SimulationConfig ecfg = bench::evalConfig(opts);
        Row &row = rows[i];
        row.display = pg.game->displayName();

        core::BaselineScheme b1;
        row.e_base = core::runSession(*pg.game, b1, ecfg)
                         .report.total();

        // Low-fidelity mode: halve sensor sampling and camera
        // capture energy (an optimistic bound on [13]-style
        // sensor optimization).
        core::SimulationConfig lofi = ecfg;
        lofi.model.sensor_sample_j *= 0.5;
        lofi.model.camera_frame_j *= 0.5;
        core::BaselineScheme b2;
        row.e_lofi =
            core::runSession(*pg.game, b2, lofi).report.total();

        core::SnipModel model = bench::buildModel(pg, opts);
        core::SnipScheme snip(model);
        row.e_snip = core::runSession(*pg.game, snip, ecfg)
                         .report.total();
    }, opts.threads);

    for (const Row &row : rows) {
        table.addRow({row.display,
                      util::formatEnergy(row.e_base),
                      util::formatEnergy(row.e_lofi),
                      util::TablePrinter::pct(
                          1.0 - row.e_lofi / row.e_base, 2),
                      util::TablePrinter::pct(
                          1.0 - row.e_snip / row.e_base, 1)});
    }
    table.print(std::cout);
    std::cout << "\n(paper §II-C: \"the drawback ... is that our "
                 "workloads do not consume much energy at the "
                 "sensors itself\")\n";
    return 0;
}
