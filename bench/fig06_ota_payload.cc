/**
 * @file
 * OTA payload companion to Fig. 6/9: the figure's argument is that
 * the naive union-of-locations table is gigabytes while the
 * PFI-trimmed deployable model is a headline ~kB-scale over-the-air
 * payload. This bench materializes both as actual serialized bytes
 * (core/model_codec.h) — a trimmed model and an untrimmed model
 * whose per-type "necessary" set is every input location — and
 * emits the comparison as JSON for downstream tooling.
 */

#include <cstdio>

#include "bench/bench_common.h"
#include "core/model_codec.h"
#include "util/bytes.h"

using namespace snip;

namespace {

/** A model that skips PFI: every input location is "necessary". */
core::SnipModel
buildUntrimmedModel(const bench::ProfiledGame &pg)
{
    core::SnipModel model;
    model.game = pg.game->name();
    core::MemoTable table(pg.game->schema());

    std::vector<events::FieldId> all_inputs;
    for (const auto &d : pg.game->schema().defs())
        if (d.side == events::FieldSide::Input)
            all_inputs.push_back(d.id);

    for (events::EventType t : pg.profile.typesPresent()) {
        table.setSelected(t, all_inputs);
        core::TypeModel tm;
        tm.type = t;
        tm.records = pg.profile.ofType(t).size();
        model.types.push_back(std::move(tm));
    }
    for (const auto &rec : pg.profile.records)
        table.insert(rec);
    model.table = table.freeze();
    return model;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Fig. 6/9 companion: OTA payload bytes, trimmed vs untrimmed",
        "paper: PFI trims the deployable table to a ~kB-scale OTA "
        "payload; untrimmed tables are orders of magnitude larger");

    const char *game_name = "ab_evolution";
    bench::ProfiledGame pg = bench::profileGame(game_name, opts);

    core::SnipModel trimmed = bench::buildModel(pg, opts);
    core::SnipModel untrimmed = buildUntrimmedModel(pg);

    uint64_t trimmed_wire = core::packedModelBytes(trimmed);
    uint64_t untrimmed_wire = core::packedModelBytes(untrimmed);

    std::printf(
        "{\"bench\":\"fig06_ota_payload\",\"game\":\"%s\","
        "\"profile_records\":%zu,"
        "\"trimmed\":{\"payload_bytes\":%llu,\"entries\":%zu,"
        "\"modeled_table_bytes\":%llu,\"selected_bytes\":%llu},"
        "\"untrimmed\":{\"payload_bytes\":%llu,\"entries\":%zu,"
        "\"modeled_table_bytes\":%llu,\"selected_bytes\":%llu},"
        "\"wire_reduction\":%.2f}\n",
        game_name, pg.profile.records.size(),
        static_cast<unsigned long long>(trimmed_wire),
        trimmed.table->entryCount(),
        static_cast<unsigned long long>(trimmed.table->totalBytes()),
        static_cast<unsigned long long>(trimmed.selectedBytes()),
        static_cast<unsigned long long>(untrimmed_wire),
        untrimmed.table->entryCount(),
        static_cast<unsigned long long>(
            untrimmed.table->totalBytes()),
        static_cast<unsigned long long>(untrimmed.selectedBytes()),
        trimmed_wire
            ? static_cast<double>(untrimmed_wire) /
                  static_cast<double>(trimmed_wire)
            : 0.0);
    return 0;
}
