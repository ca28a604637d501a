/**
 * @file
 * Fig. 12: continuous learning without developer intervention
 * (AB Evolution). The first deployment is built from an
 * artificially insufficient profile, so early sessions produce a
 * large fraction of erroneous output fields; as each session's
 * events are uploaded, replayed, and re-learned, the error rate
 * collapses. Paper anchors: ~40% erroneous initially, < 0.1%
 * within ~40 training epochs.
 */

#include <algorithm>
#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "core/continuous_learning.h"
#include "util/bytes.h"
#include "util/csv_writer.h"
#include "util/parallel.h"
#include "util/table_printer.h"

using namespace snip;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Fig. 12: continuous learning (AB Evolution)",
        "Fig. 12 — ~40% erroneous output fields initially, < 0.1% "
        "within ~40 epochs of record/replay/re-learn");

    core::LearningConfig cfg;
    cfg.epochs = opts.epochs ? opts.epochs : (opts.quick ? 16 : 48);
    cfg.session_s = opts.quick ? 8.0 : 10.0;
    cfg.initial_profile_records = 24;
    cfg.max_profile_records = 16000;
    cfg.snip.min_records_per_type = 8;
    cfg.snip.seed = opts.seed;
    cfg.snip.threads = opts.threads;
    cfg.sim.seed = opts.seed;

    // The epochs of one trajectory are inherently sequential (each
    // session's events feed the next re-learn), but independent
    // trajectories are not: run the paper's ungated learner and the
    // confidence-gated variant (§V-B, withhold deployment until the
    // tested error clears the gate) side by side.
    core::LearningConfig gated_cfg = cfg;
    gated_cfg.confidence_gate = true;

    core::LearningConfig *cfgs[] = {&cfg, &gated_cfg};
    // One registry per trajectory task (a Registry is
    // single-writer), merged after the join for --obs-json.
    obs::Registry regs[2];
    std::vector<core::EpochResult> trajectories[2];
    util::parallelFor(2, [&](size_t i) {
        if (!opts.obs_json.empty())
            cfgs[i]->obs = &regs[i];
        auto game = games::makeGame("ab_evolution");
        auto replica = games::makeGame("ab_evolution");
        core::ContinuousLearner learner(*game, *replica, *cfgs[i]);
        trajectories[i] = learner.run();
    }, opts.threads);
    const std::vector<core::EpochResult> &epochs = trajectories[0];
    const std::vector<core::EpochResult> &gated = trajectories[1];

    util::TablePrinter table({"epoch", "profile records",
                              "table size", "% erroneous fields",
                              "coverage"});
    std::unique_ptr<util::CsvWriter> csv;
    std::ofstream csv_file;
    if (!opts.csv_path.empty()) {
        csv_file.open(opts.csv_path);
        csv = std::make_unique<util::CsvWriter>(
            csv_file, std::vector<std::string>{
                          "epoch", "profile_records", "table_bytes",
                          "error_field_rate", "coverage"});
    }

    double first_err = 0.0, last_err = 0.0;
    // Convergence = first epoch after which the error *stays*
    // below 0.1%.
    int converged_at = -1;
    for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
        if (it->error_field_rate >= 0.001)
            break;
        converged_at = it->epoch;
    }
    for (const auto &e : epochs) {
        if (e.epoch == 0)
            first_err = e.error_field_rate;
        last_err = e.error_field_rate;
        bool print = e.epoch < 8 || e.epoch % 4 == 0 ||
                     &e == &epochs.back();
        if (print) {
            table.addRow(
                {std::to_string(e.epoch),
                 std::to_string(e.profile_records),
                 util::formatSize(static_cast<double>(e.table_bytes)),
                 util::TablePrinter::pct(e.error_field_rate, 3),
                 util::TablePrinter::pct(e.coverage)});
        }
        if (csv) {
            csv->row({std::to_string(e.epoch),
                      std::to_string(e.profile_records),
                      std::to_string(e.table_bytes),
                      std::to_string(e.error_field_rate),
                      std::to_string(e.coverage)});
        }
    }
    table.print(std::cout);

    std::cout << "\ninitial error "
              << util::TablePrinter::pct(first_err, 2)
              << " [paper ~40%], final "
              << util::TablePrinter::pct(last_err, 3)
              << " [paper < 0.1%]";
    if (converged_at >= 0)
        std::cout << ", first epoch below 0.1%: " << converged_at
                  << " [paper ~40]";
    std::cout << "\n";

    // Confidence-gate comparison: worst user-visible epoch error
    // with and without withholding deployment early on.
    double worst_ungated = 0.0, worst_gated = 0.0;
    int gate_deployed_at = -1;
    for (const auto &e : epochs)
        worst_ungated = std::max(worst_ungated, e.error_field_rate);
    for (const auto &e : gated) {
        worst_gated = std::max(worst_gated, e.error_field_rate);
        if (gate_deployed_at < 0 && e.deployed)
            gate_deployed_at = e.epoch;
    }
    std::cout << "confidence gate: worst epoch error "
              << util::TablePrinter::pct(worst_ungated, 2)
              << " ungated vs "
              << util::TablePrinter::pct(worst_gated, 2)
              << " gated (first deployed epoch "
              << gate_deployed_at << ")\n";

    if (!opts.obs_json.empty()) {
        obs::Registry merged;
        merged.merge(regs[0]);
        merged.merge(regs[1]);
        bench::writeObsJson(merged, opts);
    }
    return 0;
}
