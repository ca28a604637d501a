/**
 * @file
 * Fig. 11: the headline evaluation — for every game, the energy
 * saved by Max CPU / Max IP / SNIP / No-Overheads-SNIP relative to
 * baseline (11a), the % of execution each scheme short-circuits
 * (11b), and SNIP's lookup overheads (11c). Paper anchors:
 * Max CPU 0.5-13%, Max IP 0.7-9%, SNIP 24-37% (avg 32%, ~1.6 h
 * extra battery), coverage 40-61% (avg 52%), overheads avg ~3%
 * with Memory Game the ~12% outlier, Colorphun comparing ~7.5 kB
 * per event.
 */

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "core/scheme.h"
#include "obs/metrics.h"
#include "soc/battery.h"
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
        "Fig. 11: energy benefits, coverage, and overheads",
        "Fig. 11a/b/c — SNIP saves 24-37% (avg 32%) by "
        "short-circuiting 40-61% (avg 52%) of execution; overheads "
        "avg ~3%");

    util::TablePrinter savings({"game", "Max CPU", "Max IP", "SNIP",
                                "No Overheads", "extra battery"});
    util::TablePrinter coverage({"game", "Max CPU", "Max IP (ip work)",
                                 "SNIP", "SNIP err fields"});
    util::TablePrinter overheads({"game", "overhead energy",
                                  "compares/event", "bytes/event",
                                  "table size"});

    std::unique_ptr<util::CsvWriter> csv;
    std::ofstream csv_file;
    if (!opts.csv_path.empty()) {
        csv_file.open(opts.csv_path);
        csv = std::make_unique<util::CsvWriter>(
            csv_file, std::vector<std::string>{
                          "game", "scheme", "energy_j", "savings",
                          "coverage_instr", "coverage_ip",
                          "err_field_rate", "lookup_bytes_per_event"});
    }

    soc::EnergyModel em = soc::EnergyModel::snapdragon821();
    soc::Battery battery(em.battery_mah, em.battery_volts);
    double save_sum = 0.0, cov_sum = 0.0, extra_h_sum = 0.0;
    int n_games = 0;

    const core::SchemeKind kinds[] = {
        core::SchemeKind::Baseline, core::SchemeKind::MaxCpu,
        core::SchemeKind::MaxIp, core::SchemeKind::Snip,
        core::SchemeKind::NoOverheads};
    constexpr size_t kNumKinds = 5;

    // Phase 1: profile every game in parallel. Phase 2: build and
    // freeze one model per game; both SNIP schemes share it read-only,
    // each with its own online-fill overlay, and Baseline / Max CPU /
    // Max IP need none. Phase 3: every (game, scheme) evaluation
    // session is an independent task on its own game clone, so
    // per-session stats are bitwise identical for any --threads value.
    std::vector<bench::ProfiledGame> pgs = bench::profileAllGames(opts);
    const auto &names = games::allGameNames();

    // Per-game build metrics (under --obs-json only); each task is
    // the sole writer of its registry until the join.
    std::vector<obs::Registry> build_regs(names.size());
    std::vector<core::SnipModel> models(names.size());
    util::parallelFor(names.size(), [&](size_t g) {
        obs::Registry *reg =
            !opts.obs_json.empty() ? &build_regs[g] : nullptr;
        models[g] = bench::buildModel(pgs[g], opts, reg);
    }, opts.threads);

    struct SchemeRun {
        core::SessionResult res;
        uint64_t table_bytes = 0;
        /** Per-run metrics (SNIP runs under --obs-json only); the
         *  run's task is the sole writer until the join. */
        obs::Registry reg;
    };
    std::vector<SchemeRun> evals(names.size() * kNumKinds);
    util::parallelFor(evals.size(), [&](size_t i) {
        const bench::ProfiledGame &pg = pgs[i / kNumKinds];
        const core::SnipModel &model = models[i / kNumKinds];
        core::SchemeKind kind = kinds[i % kNumKinds];
        obs::Registry *reg = !opts.obs_json.empty() &&
                                     kind == core::SchemeKind::Snip
                                 ? &evals[i].reg
                                 : nullptr;
        core::SimulationConfig ecfg = bench::evalConfig(opts);
        ecfg.obs = reg;
        auto game = games::makeGame(pg.game->name());
        std::unique_ptr<core::Scheme> scheme;
        if (kind == core::SchemeKind::Snip ||
            kind == core::SchemeKind::NoOverheads) {
            core::SnipRuntimeConfig rcfg;
            rcfg.obs = reg;
            scheme = std::make_unique<core::SnipScheme>(
                model, rcfg, kind == core::SchemeKind::Snip);
        } else {
            scheme = core::makeScheme(kind);
        }
        evals[i].res = core::runSession(*game, *scheme, ecfg);
        // Deployed bytes = frozen arena + online-fill overlay (the
        // layouts actually serving lookups), not the build table.
        auto *snip = dynamic_cast<core::SnipScheme *>(scheme.get());
        evals[i].table_bytes = snip ? snip->deployedTableBytes()
                                    : model.tableBytes();
        if (reg && snip)
            snip->recordTableStats(*reg);
    }, opts.threads);

    for (size_t g = 0; g < names.size(); ++g) {
        const std::string &name = names[g];
        const bench::ProfiledGame &pg = pgs[g];

        double baseline_e = 0.0, baseline_p = 0.0;
        double row_save[4] = {};
        double snip_cov = 0.0, snip_err = 0.0, maxcpu_cov = 0.0,
               maxip_cov = 0.0;
        double lookup_e = 0.0, snip_e = 1.0;
        double cand_per_ev = 0.0, bytes_per_ev = 0.0;
        uint64_t table_bytes = 0;

        for (size_t k = 0; k < kNumKinds; ++k) {
            const SchemeRun &run = evals[g * kNumKinds + k];
            const core::SessionResult &res = run.res;
            double e = res.report.total();
            if (k == 0) {
                baseline_e = e;
                baseline_p = res.report.averagePower();
            } else {
                row_save[k - 1] = 1.0 - e / baseline_e;
            }
            switch (kinds[k]) {
              case core::SchemeKind::MaxCpu:
                maxcpu_cov = res.stats.coverageInstr();
                break;
              case core::SchemeKind::MaxIp:
                maxip_cov = res.stats.coverageIpWork();
                break;
              case core::SchemeKind::Snip:
                snip_cov = res.stats.coverageInstr();
                snip_err = res.stats.errorFieldRate();
                lookup_e = res.stats.lookup_energy_j;
                snip_e = e;
                cand_per_ev =
                    static_cast<double>(res.stats.lookup_candidates) /
                    static_cast<double>(res.stats.events);
                bytes_per_ev =
                    static_cast<double>(res.stats.lookup_bytes) /
                    static_cast<double>(res.stats.events);
                table_bytes = run.table_bytes;
                break;
              default:
                break;
            }
            if (csv) {
                csv->row({name, core::schemeName(kinds[k]),
                          std::to_string(e),
                          std::to_string(1.0 - e / baseline_e),
                          std::to_string(res.stats.coverageInstr()),
                          std::to_string(res.stats.coverageIpWork()),
                          std::to_string(res.stats.errorFieldRate()),
                          std::to_string(bytes_per_ev)});
            }
        }

        double base_h = battery.hoursToEmpty(baseline_p);
        double snip_h =
            battery.hoursToEmpty(baseline_p * (1.0 - row_save[2]));
        char extra[32];
        std::snprintf(extra, sizeof(extra), "+%.1f h",
                      snip_h - base_h);

        savings.addRow({pg.game->displayName(),
                        util::TablePrinter::pct(row_save[0]),
                        util::TablePrinter::pct(row_save[1]),
                        util::TablePrinter::pct(row_save[2]),
                        util::TablePrinter::pct(row_save[3]), extra});
        coverage.addRow({pg.game->displayName(),
                         util::TablePrinter::pct(maxcpu_cov),
                         util::TablePrinter::pct(maxip_cov),
                         util::TablePrinter::pct(snip_cov),
                         util::TablePrinter::pct(snip_err, 3)});
        overheads.addRow(
            {pg.game->displayName(),
             util::TablePrinter::pct(lookup_e / snip_e),
             util::TablePrinter::num(cand_per_ev, 1),
             util::formatSize(bytes_per_ev),
             util::formatSize(static_cast<double>(table_bytes))});

        save_sum += row_save[2];
        cov_sum += snip_cov;
        extra_h_sum += snip_h - base_h;
        ++n_games;
    }

    std::cout << "(a) energy savings vs baseline "
                 "[paper: MaxCPU 0.5-13%, MaxIP 0.7-9%, SNIP 24-37%]\n";
    savings.print(std::cout);
    std::cout << "\n(b) % execution short-circuited "
                 "[paper: SNIP 40-61%, avg 52%]\n";
    coverage.print(std::cout);
    std::cout << "\n(c) SNIP lookup overheads "
                 "[paper: avg ~3%, Memory Game ~12%, Colorphun "
                 "~7.5 kB/event]\n";
    overheads.print(std::cout);
    std::cout << "\naverages: SNIP saves "
              << util::TablePrinter::pct(save_sum / n_games)
              << " [paper 32%], coverage "
              << util::TablePrinter::pct(cov_sum / n_games)
              << " [paper 52%], extra battery "
              << util::TablePrinter::num(extra_h_sum / n_games, 1)
              << " h [paper ~1.6 h]\n";

    if (!opts.obs_json.empty()) {
        obs::Registry merged;
        for (const obs::Registry &reg : build_regs)
            merged.merge(reg);
        for (const SchemeRun &run : evals)
            merged.merge(run.reg);
        // Gauges are last-writer-wins under merge, so the per-game
        // rate gauges must be recomputed from the merged counters
        // to describe the whole bench.
        auto ratio = [&](const char *num, const char *den) {
            double d = static_cast<double>(merged.counterValue(den));
            return d > 0 ? static_cast<double>(
                               merged.counterValue(num)) / d
                         : 0.0;
        };
        double hits = static_cast<double>(
            merged.counterValue("lookup.hits"));
        double looks =
            hits + static_cast<double>(
                       merged.counterValue("lookup.misses"));
        merged.gauge("session.hit_rate")
            .set(looks > 0 ? hits / looks : 0.0);
        merged.gauge("session.error_field_rate")
            .set(ratio("session.output_fields_wrong",
                       "session.output_fields"));
        merged.gauge("session.coverage_instr")
            .set(ratio("session.instr_skipped",
                       "session.instr_total"));
        bench::writeObsJson(merged, opts);
    }
    return 0;
}
