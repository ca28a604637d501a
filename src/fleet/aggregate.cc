#include "fleet/aggregate.h"

#include <memory>
#include <vector>

#include "core/model_codec.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace snip {
namespace fleet {

AggregateStats
aggregateUploads(core::MemoTable &dest,
                 std::span<const util::ByteBuffer> uploads,
                 const AggregateConfig &cfg)
{
    AggregateStats stats;
    stats.uploads = uploads.size();
    if (uploads.empty())
        return stats;

    // Decode every payload independently (one task per upload).
    // A payload that fails integrity checks is dropped — that device
    // just contributes nothing this round.
    std::vector<std::shared_ptr<const core::FrozenTable>> decoded(
        uploads.size());
    util::parallelFor(
        uploads.size(),
        [&](size_t u) {
            // Deployed over the caller's bytes (a non-owning
            // aliasing pointer): the uploads outlive the call, and
            // each decoded table is merged and dropped inside it.
            util::Result<core::SnipModel> res = core::deployModel(
                std::shared_ptr<const util::ByteBuffer>(
                    std::shared_ptr<void>(), &uploads[u]));
            if (!res.ok() || !res.value().table) {
                util::warn("fleet: dropping upload %zu: %s", u,
                           res.ok() ? "no table in payload"
                                    : res.status().message().c_str());
                return;
            }
            decoded[u] = std::move(res.value().table);
        },
        cfg.threads);
    // One serial chain in upload order, so the aggregate does not
    // depend on the decode thread count.
    for (const auto &t : decoded) {
        if (t)
            dest.mergeFrom(*t);
        else
            ++stats.dropped;
    }

    if (cfg.obs) {
        obs::Registry &r = *cfg.obs;
        r.counter("fleet.aggregate.uploads").add(stats.uploads);
        r.counter("fleet.aggregate.dropped").add(stats.dropped);
    }
    return stats;
}

}  // namespace fleet
}  // namespace snip
