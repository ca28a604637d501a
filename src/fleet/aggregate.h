/**
 * @file
 * Federated aggregation of per-device uploads: the one merge the
 * federated backend (buildFederated) and the fleet benches run.
 * aggregateUploads decodes the payloads in parallel
 * (util::parallelFor, one task per upload; a decode attaches the
 * frozen table over the caller's bytes, it neither copies the upload
 * nor rebuilds the table) and then folds the decoded tables into the
 * agreed table through one serial MemoTable::mergeFrom chain in
 * upload order — so the aggregate (frozen arena bytes) is the same
 * at any thread count, which tests/fleet_test.cc checks at threads
 * {1, 2, 8} against a serial decode-and-merge reference.
 *
 * Only decoding runs in parallel: it is independent per upload,
 * while parallel shard unions plus a tree merge measured slower
 * than the one chain (DESIGN.md §9).
 *
 * A corrupt upload is dropped: that device contributes nothing this
 * round, nothing fails.
 */

#ifndef SNIP_FLEET_AGGREGATE_H
#define SNIP_FLEET_AGGREGATE_H

#include <span>

#include "core/memo_table.h"
#include "util/bytes.h"

namespace snip {

namespace obs {
class Registry;
}  // namespace obs

namespace fleet {

/** Aggregation knobs. */
struct AggregateConfig {
    /** Decode workers (0 = SNIP_THREADS / all cores). */
    unsigned threads = 0;
    /** Optional `fleet.aggregate.*` metrics sink. */
    obs::Registry *obs = nullptr;
};

/** What the aggregation pass consumed. */
struct AggregateStats {
    size_t uploads = 0;
    /** Uploads rejected by integrity checks and dropped. */
    size_t dropped = 0;
};

/**
 * Decode the serialized per-device upload payloads (SNPM packages,
 * as buildFederated and recordUploadPayloads pack them) and union
 * their tables into @p dest in upload order; @p dest's selected sets
 * drive the re-projection. Returns what was consumed/dropped. The
 * decoded tables borrow @p uploads and are dropped before the call
 * returns.
 */
AggregateStats aggregateUploads(core::MemoTable &dest,
                                std::span<const util::ByteBuffer> uploads,
                                const AggregateConfig &cfg = {});

}  // namespace fleet
}  // namespace snip

#endif  // SNIP_FLEET_AGGREGATE_H
