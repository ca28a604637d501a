/**
 * @file
 * Ablation study of the design choices DESIGN.md calls out:
 *
 *  1. The predictor behind PFI, the exact-match table the phone
 *     deploys: size and held-out wrong-hit rate of the full and the
 *     PFI-selected feature sets.
 *  2. Selection budgets: how the error budget trades necessary-set
 *     size against runtime coverage/error.
 *  3. Profile length: selection quality vs amount of profile data
 *     (the insufficient-profile regime of Fig. 12).
 */

#include <iostream>

#include "bench/bench_common.h"
#include "ml/dataset.h"
#include "ml/feature_selection.h"
#include "util/bytes.h"
#include "util/parallel.h"
#include "util/table_printer.h"

using namespace snip;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    bench::printHeader("Ablations: predictor family, budgets, "
                       "profile length",
                       "design-choice ablations (DESIGN.md §5)");

    bench::ProfiledGame pg = bench::profileGame("ab_evolution", opts);
    const events::FieldSchema &schema = pg.game->schema();
    ml::Dataset ds(pg.profile.ofType(events::EventType::Drag), schema);

    ml::SelectionConfig scfg;
    scfg.max_error = 0.002;
    scfg.max_conditional_error = 0.012;
    scfg.pfi.threads = opts.threads;
    ml::SelectionResult sel = ml::selectNecessaryInputs(ds, scfg);

    // --- 1. the deployed predictor, full vs selected ---
    std::cout << "(1) exact-match table behind PFI (drag events, "
              << ds.numRows() << " records)\n";
    util::TablePrinter fam({"features", "bytes", "holdout wrong hits"});
    fam.addRow({"all",
                util::formatSize(static_cast<double>(sel.full_bytes)),
                util::TablePrinter::pct(sel.full_error, 3)});
    fam.addRow({"PFI-selected",
                util::formatSize(static_cast<double>(sel.selected_bytes)),
                util::TablePrinter::pct(sel.selected_error, 3)});
    fam.print(std::cout);
    std::cout << "(the deployed mechanism must be the exact-match "
                 "table: only exact matches\n justify substituting "
                 "memoized outputs)\n\n";

    // --- 2. error-budget sweep (each budget point is independent,
    //        so the sweep fans out over the session workers) ---
    std::cout << "(2) selection error-budget sweep (drag events)\n";
    util::TablePrinter bud({"abs budget", "cond budget",
                            "selected bytes", "holdout hit rate",
                            "holdout wrong hits"});
    const double abs_budgets[] = {0.05, 0.01, 0.002, 0.0005};
    constexpr size_t kNumBudgets =
        sizeof(abs_budgets) / sizeof(abs_budgets[0]);
    ml::SelectionResult bud_results[kNumBudgets];
    util::parallelFor(kNumBudgets, [&](size_t i) {
        ml::SelectionConfig c;
        c.max_error = abs_budgets[i];
        c.max_conditional_error = abs_budgets[i] * 6;
        // Already inside a parallel loop — keep the inner PFI
        // serial rather than oversubscribing (output is identical).
        c.pfi.threads = 1;
        bud_results[i] = ml::selectNecessaryInputs(ds, c);
    }, opts.threads);
    for (size_t i = 0; i < kNumBudgets; ++i) {
        const ml::SelectionResult &r = bud_results[i];
        bud.addRow({util::TablePrinter::pct(abs_budgets[i], 2),
                    util::TablePrinter::pct(abs_budgets[i] * 6, 2),
                    util::formatSize(
                        static_cast<double>(r.selected_bytes)),
                    util::TablePrinter::pct(r.selected_hit_rate),
                    util::TablePrinter::pct(r.selected_error, 3)});
    }
    bud.print(std::cout);
    std::cout << "\n";

    // --- 3. profile-length sweep (parallel, same pattern) ---
    std::cout << "(3) profile-length sweep (drag events)\n";
    util::TablePrinter len({"records", "selected fields",
                            "selected bytes", "wrong hits"});
    const size_t fractions[] = {20, 60, 200, 1000, SIZE_MAX};
    constexpr size_t kNumFractions =
        sizeof(fractions) / sizeof(fractions[0]);
    struct LenRow {
        size_t rows = 0;
        ml::SelectionResult r;
    };
    LenRow len_results[kNumFractions];
    util::parallelFor(kNumFractions, [&](size_t i) {
        auto recs = pg.profile.ofType(events::EventType::Drag);
        if (fractions[i] != SIZE_MAX && recs.size() > fractions[i])
            recs.resize(fractions[i]);
        if (recs.size() < 16)
            return;
        ml::Dataset d2(std::move(recs), schema);
        len_results[i].rows = d2.numRows();
        len_results[i].r = ml::selectNecessaryInputs(d2, scfg);
    }, opts.threads);
    for (const LenRow &lr : len_results) {
        if (lr.rows == 0)
            continue;
        len.addRow({std::to_string(lr.rows),
                    std::to_string(lr.r.selected.size()),
                    util::formatSize(
                        static_cast<double>(lr.r.selected_bytes)),
                    util::TablePrinter::pct(lr.r.selected_error, 3)});
    }
    len.print(std::cout);
    std::cout << "(small profiles under-select: the Fig. 12 "
                 "insufficient-profile regime)\n";
    return 0;
}
