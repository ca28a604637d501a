/**
 * @file
 * Fig. 9: PFI-driven input trimming for AB Evolution — starting
 * from the full union-of-locations input record, drop fields in
 * ascending importance and chart (remaining necessary-input bytes,
 * % erroneously short-circuited outputs), color-coded by the
 * category of the dropped field. Paper anchors: ~1.2 kB of the
 * ~1 MB record (≈0.2% of the input fields) predicts ~99% of
 * outputs with 100% accuracy; error ramps steeply past the knee;
 * the last ~50 B of In.Event alone still short-circuits ~12%.
 */

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "ml/dataset.h"
#include "ml/feature_selection.h"
#include "util/bytes.h"
#include "util/csv_writer.h"
#include "util/table_printer.h"

using namespace snip;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Fig. 9: PFI necessary-input trimming (AB Evolution)",
        "Fig. 9 — ~1.2 kB of ~1 MB inputs short-circuits ~99% of "
        "outputs at 100% accuracy; error ramps past the knee");

    bench::ProfiledGame pg = bench::profileGame("ab_evolution", opts);
    const events::FieldSchema &schema = pg.game->schema();

    std::cout << "full input record (union of locations): "
              << util::formatSize(
                     static_cast<double>(schema.totalInputBytes()))
              << "\n\n";

    std::unique_ptr<util::CsvWriter> csv;
    std::ofstream csv_file;
    if (!opts.csv_path.empty()) {
        csv_file.open(opts.csv_path);
        csv = std::make_unique<util::CsvWriter>(
            csv_file,
            std::vector<std::string>{"event_type", "dropped",
                                     "category", "remaining_bytes",
                                     "wrong_hit_rate", "hit_rate"});
    }

    uint64_t total_selected = 0;
    for (events::EventType t : pg.profile.typesPresent()) {
        ml::Dataset ds(pg.profile.ofType(t), schema);
        ml::SelectionConfig cfg;
        cfg.max_error = 0.002;
        cfg.max_conditional_error = 0.012;
        cfg.pfi.seed = opts.seed;
        cfg.pfi.threads = opts.threads;
        ml::SelectionResult sel = ml::selectNecessaryInputs(ds, cfg);
        ml::chartTail(ds, sel, cfg);

        std::cout << "--- " << events::eventTypeName(t) << " events ("
                  << ds.numRows() << " records, " << ds.numFeatures()
                  << " input locations) ---\n";
        util::TablePrinter table({"dropped field", "category",
                                  "remaining", "% wrong hits",
                                  "% hits"});
        // Compact: print every step near the knee, every 4th in the
        // flat region.
        const auto &curve = sel.curve;
        for (size_t i = 0; i < curve.size(); ++i) {
            const auto &s = curve[i];
            bool interesting = s.error > 0.0005 ||
                               i + 8 >= curve.size() || i % 4 == 0;
            if (!interesting)
                continue;
            table.addRow({schema.def(s.dropped).name,
                          events::inputCategoryName(s.dropped_cat),
                          util::formatSize(static_cast<double>(
                              s.remaining_bytes)),
                          util::TablePrinter::pct(s.error, 2),
                          util::TablePrinter::pct(s.hit_rate)});
            if (csv) {
                csv->row({events::eventTypeName(t),
                          schema.def(s.dropped).name,
                          events::inputCategoryName(s.dropped_cat),
                          std::to_string(s.remaining_bytes),
                          std::to_string(s.error),
                          std::to_string(s.hit_rate)});
            }
        }
        table.print(std::cout);
        std::cout << "selected necessary inputs: "
                  << sel.selected.size() << " fields, "
                  << util::formatSize(
                         static_cast<double>(sel.selected_bytes))
                  << " (wrong-hit rate "
                  << util::TablePrinter::pct(sel.selected_error, 2)
                  << ", hit rate "
                  << util::TablePrinter::pct(sel.selected_hit_rate)
                  << ")\n  kept:";
        for (events::FieldId fid : sel.selected)
            std::cout << " " << schema.def(fid).name;
        std::cout << "\n\n";
        total_selected += sel.selected_bytes;
    }

    std::cout << "total necessary inputs across event types: "
              << util::formatSize(static_cast<double>(total_selected))
              << " of "
              << util::formatSize(
                     static_cast<double>(schema.totalInputBytes()))
              << " ("
              << util::TablePrinter::pct(
                     static_cast<double>(total_selected) /
                         static_cast<double>(schema.totalInputBytes()),
                     3)
              << ")  [paper: ~1.2 kB of ~1 MB, ~0.2%]\n";
    return 0;
}
