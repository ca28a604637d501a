/**
 * @file
 * Federated vs centralized SNIP backend (paper §VII-C future
 * direction). The centralized backend replays every user's raw
 * event upload and runs one big PFI job ("2 days on a 48-core Xeon
 * for 2 minutes of play"); the federated backend runs selection
 * per device, majority-votes the necessary-input sets, and unions
 * locally-projected tables — a fraction of the upload volume and a
 * per-device-sized serial compute job, at (ideally) no loss in
 * deployed coverage or correctness.
 */

#include <iostream>

#include "bench/bench_common.h"
#include "fleet/federated.h"
#include "util/bytes.h"
#include "util/table_printer.h"

using namespace snip;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    bench::printHeader("Ablation: federated vs centralized backend",
                       "§VII-C — federated learning as a backend-"
                       "cost reduction");

    const char *game = "chase_whisply";
    fleet::FederatedConfig cfg;
    cfg.num_users = opts.quick ? 3 : 6;
    cfg.session_s = opts.quick ? 60.0 : 150.0;
    cfg.seed = opts.seed;
    cfg.snip.threads = opts.threads;

    fleet::FederatedResult central = fleet::buildCentralized(game, cfg);
    fleet::FederatedResult fed = fleet::buildFederated(game, cfg);

    uint64_t eval_seed = util::mixCombine(opts.seed, 0x4e1dULL);
    fleet::FederatedEval ec =
        fleet::evaluateModel(game, central.model, eval_seed);
    fleet::FederatedEval ef =
        fleet::evaluateModel(game, fed.model, eval_seed);

    util::TablePrinter table({"metric", "centralized", "federated"});
    table.addRow({"raw bytes uploaded",
                  util::formatSize(static_cast<double>(
                      central.cost.uploaded_bytes)),
                  util::formatSize(static_cast<double>(
                      fed.cost.uploaded_bytes))});
    table.addRow({"records per selection job",
                  std::to_string(central.cost.selection_records),
                  std::to_string(fed.cost.selection_records)});
    table.addRow({"deployed table",
                  util::formatSize(static_cast<double>(
                      central.model.table->totalBytes())),
                  util::formatSize(static_cast<double>(
                      fed.model.table->totalBytes()))});
    table.addRow({"necessary-input bytes",
                  std::to_string(central.model.selectedBytes()),
                  std::to_string(fed.model.selectedBytes())});
    table.addRow({"held-out coverage",
                  util::TablePrinter::pct(ec.coverage),
                  util::TablePrinter::pct(ef.coverage)});
    table.addRow({"held-out error fields",
                  util::TablePrinter::pct(ec.error_field_rate, 3),
                  util::TablePrinter::pct(ef.error_field_rate, 3)});
    table.addRow({"held-out energy savings",
                  util::TablePrinter::pct(ec.energy_savings),
                  util::TablePrinter::pct(ef.energy_savings)});
    table.print(std::cout);

    std::cout << "\nfederated uploads "
              << util::TablePrinter::num(
                     static_cast<double>(central.cost.uploaded_bytes) /
                         static_cast<double>(
                             std::max<uint64_t>(
                                 1, fed.cost.uploaded_bytes)),
                     1)
              << "x less raw data and shrinks the serial selection "
                 "job by "
              << util::TablePrinter::num(
                     static_cast<double>(
                         central.cost.selection_records) /
                         static_cast<double>(std::max<uint64_t>(
                             1, fed.cost.selection_records)),
                     1)
              << "x\n";
    return 0;
}
