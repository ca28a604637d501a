#include "fleet/registry.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/model_codec.h"
#include "fleet/delta.h"
#include "obs/metrics.h"
#include "trace/trace_log.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace snip {
namespace fleet {

namespace {

/** Content digest of the whole package envelope. */
VersionId
digestOf(const util::ByteBuffer &pkg)
{
    VersionId id = util::fnv1a(pkg.data().data(), pkg.size());
    // 0 means "no version" in the API; remap the (astronomically
    // unlikely) zero digest rather than ban the package.
    return id ? id : 1;
}

std::string
hex16(VersionId id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

/**
 * Parse @p s as hex16() writes it, exactly 16 lowercase hex digits,
 * into @p id; false for anything else.
 */
bool
parseHex16(const std::string &s, VersionId *id)
{
    if (s.size() != 16)
        return false;
    VersionId v = 0;
    for (char c : s) {
        int d = c >= '0' && c <= '9'   ? c - '0'
                : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                       : -1;
        if (d < 0)
            return false;
        v = v << 4 | static_cast<VersionId>(d);
    }
    *id = v;
    return true;
}

}  // namespace

util::Result<VersionId>
ModelRegistry::publish(const std::string &game,
                       std::shared_ptr<const util::ByteBuffer> pkg,
                       VersionId parent)
{
    if (!pkg)
        return util::Status::Error("registry: null package");
    if (game.empty())
        return util::Status::Error("registry: empty game name");
    core::PackageInfo info;
    util::Status st = core::inspectPackage(*pkg, &info);
    if (!st.ok())
        return st;
    if (!info.crc_ok)
        return util::Status::Errorf(
            "registry: refusing corrupt package (payload CRC "
            "0x%08x does not hold)",
            info.crc);

    GameLine &gl = games_[game];
    VersionId id = digestOf(*pkg);
    if (auto it = gl.by_id.find(id); it != gl.by_id.end()) {
        // Identical bytes, identical id: idempotent republish.
        if (obs_)
            obs_->counter("fleet.registry.duplicate_publishes")
                .add(1);
        return id;
    }
    if (parent == 0) {
        if (!gl.versions.empty())
            parent = gl.versions.back().id;
    } else if (!gl.by_id.count(parent)) {
        // Leave the just-created empty line in place; an empty
        // GameLine is indistinguishable from an absent one.
        return util::Status::Errorf(
            "registry: parent version %s is not published",
            hex16(parent).c_str());
    }

    ModelVersion v;
    v.id = id;
    v.parent = parent;
    v.epoch = static_cast<uint32_t>(gl.versions.size());
    v.crc = info.crc;
    v.bytes = pkg->size();
    v.package = std::move(pkg);
    gl.by_id.emplace(id, gl.versions.size());
    gl.versions.push_back(std::move(v));
    if (obs_) {
        obs_->counter("fleet.registry.publishes").add(1);
        obs_->counter("fleet.registry.published_bytes")
            .add(gl.versions.back().bytes);
    }
    return id;
}

const ModelRegistry::GameLine *
ModelRegistry::line(const std::string &game) const
{
    auto it = games_.find(game);
    return it == games_.end() ? nullptr : &it->second;
}

const ModelVersion *
ModelRegistry::find(const std::string &game, VersionId id) const
{
    const GameLine *gl = line(game);
    if (!gl)
        return nullptr;
    auto it = gl->by_id.find(id);
    return it == gl->by_id.end() ? nullptr
                                 : &gl->versions[it->second];
}

const ModelVersion *
ModelRegistry::head(const std::string &game) const
{
    const GameLine *gl = line(game);
    return gl && !gl->versions.empty() ? &gl->versions.back()
                                       : nullptr;
}

const ModelVersion *
ModelRegistry::behindHead(const std::string &game,
                          uint32_t behind) const
{
    const ModelVersion *v = head(game);
    for (uint32_t i = 0; v && i < behind; ++i)
        v = v->parent ? find(game, v->parent) : nullptr;
    return v;
}

util::Result<std::vector<VersionId>>
ModelRegistry::lineage(const std::string &game, VersionId id) const
{
    const GameLine *gl = line(game);
    if (!gl)
        return util::Status::Errorf("registry: unknown game '%s'",
                                    game.c_str());
    std::vector<VersionId> chain;
    VersionId cur = id;
    while (cur != 0) {
        auto it = gl->by_id.find(cur);
        if (it == gl->by_id.end())
            return util::Status::Errorf(
                "registry: broken lineage at version %s",
                hex16(cur).c_str());
        if (chain.size() > gl->versions.size())
            return util::Status::Error(
                "registry: lineage cycle detected");
        chain.push_back(cur);
        cur = gl->versions[it->second].parent;
    }
    if (chain.empty())
        return util::Status::Error("registry: no such version");
    return chain;
}

util::Result<std::shared_ptr<const util::ByteBuffer>>
ModelRegistry::fetch(const std::string &game, VersionId id) const
{
    const ModelVersion *v = find(game, id);
    if (!v)
        return util::Status::Errorf(
            "registry: version %s of '%s' is not published",
            hex16(id).c_str(), game.c_str());
    // Re-verify before serving: the envelope payload CRC must still
    // hold over the stored bytes.
    core::PackageInfo info;
    util::Status st = core::inspectPackage(*v->package, &info);
    if (!st.ok() || !info.crc_ok || info.crc != v->crc) {
        if (obs_)
            obs_->counter("fleet.registry.fetch_failures").add(1);
        return util::Status::Errorf(
            "registry: stored version %s fails integrity re-check",
            hex16(id).c_str());
    }
    if (obs_)
        obs_->counter("fleet.registry.fetches").add(1);
    return v->package;
}

util::Result<std::shared_ptr<const util::ByteBuffer>>
ModelRegistry::delta(const std::string &game, VersionId from,
                     VersionId to)
{
    auto key = std::make_pair(from, to);
    if (auto it = deltas_.find(key); it != deltas_.end()) {
        if (obs_)
            obs_->counter("fleet.registry.delta_cache_hits").add(1);
        return it->second;
    }
    const ModelVersion *src = find(game, from);
    const ModelVersion *tgt = find(game, to);
    if (!src || !tgt)
        return util::Status::Errorf(
            "registry: delta endpoints %s -> %s not both published",
            hex16(from).c_str(), hex16(to).c_str());
    auto patch = std::make_shared<util::ByteBuffer>();
    diffBytes(std::span<const uint8_t>(src->package->data()),
              std::span<const uint8_t>(tgt->package->data()),
              *patch);
    if (obs_) {
        obs_->counter("fleet.registry.delta_builds").add(1);
        obs_->counter("fleet.registry.delta_bytes")
            .add(patch->size());
    }
    deltas_.emplace(key, patch);
    return std::shared_ptr<const util::ByteBuffer>(patch);
}

size_t
ModelRegistry::versionCount(const std::string &game) const
{
    const GameLine *gl = line(game);
    return gl ? gl->versions.size() : 0;
}

const std::vector<ModelVersion> &
ModelRegistry::versions(const std::string &game) const
{
    static const std::vector<ModelVersion> kEmpty;
    const GameLine *gl = line(game);
    return gl ? gl->versions : kEmpty;
}

util::Status
ModelRegistry::saveDir(const std::string &dir) const
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        return util::Status::Errorf("registry: mkdir %s: %s",
                                    dir.c_str(),
                                    std::strerror(errno));
    std::ostringstream index;
    for (const auto &[game, gl] : games_) {
        for (const ModelVersion &v : gl.versions) {
            util::Status st = trace::saveBuffer(
                *v.package, dir + "/" + hex16(v.id) + ".snpm");
            if (!st.ok())
                return st;
            index << game << '\t' << hex16(v.id) << '\t'
                  << hex16(v.parent) << '\t' << v.epoch << '\t'
                  << v.bytes << '\n';
        }
    }
    // The index goes last: until it is renamed into place, a load
    // sees the previous index, whose packages are all still present.
    const std::string text = index.str();
    util::Status st =
        util::writeFileAtomic(dir + "/index.txt", text.data(), text.size());
    if (!st.ok())
        return util::Status::Errorf("registry: %s", st.message().c_str());
    return st;
}

util::Result<ModelRegistry>
ModelRegistry::loadDir(const std::string &dir, obs::Registry *obs)
{
    std::ifstream in(dir + "/index.txt", std::ios::binary);
    if (!in)
        return util::Status::Errorf(
            "registry: cannot read %s (not a registry directory?)",
            (dir + "/index.txt").c_str());
    ModelRegistry reg(obs);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string game, id_hex, parent_hex;
        uint32_t epoch = 0;
        uint64_t bytes = 0;
        if (!(ls >> game >> id_hex >> parent_hex >> epoch >> bytes))
            return util::Status::Errorf(
                "registry: malformed index line %zu", lineno);
        // The package path is built from the parsed id, never from
        // the raw token, so no index line names a file outside dir.
        VersionId id = 0, parent = 0;
        if (!parseHex16(id_hex, &id) || !parseHex16(parent_hex, &parent))
            return util::Status::Errorf(
                "registry: index line %zu: version id is not 16 "
                "lowercase hex digits",
                lineno);
        auto pkg = std::make_shared<util::ByteBuffer>();
        util::Status st = trace::loadBuffer(
            dir + "/" + hex16(id) + ".snpm", pkg.get());
        if (!st.ok())
            return st;
        if (digestOf(*pkg) != id || pkg->size() != bytes)
            return util::Status::Errorf(
                "registry: stored package %s does not match its "
                "index entry",
                id_hex.c_str());
        util::Result<VersionId> pub =
            reg.publish(game, std::move(pkg), parent);
        if (!pub.ok())
            return pub.status();
        if (pub.value() != id)
            return util::Status::Errorf(
                "registry: digest drift loading %s",
                id_hex.c_str());
        const uint32_t assigned = reg.find(game, id)->epoch;
        if (epoch != assigned)
            return util::Status::Errorf(
                "registry: index line %zu: epoch %u, but its lineage "
                "makes it epoch %u",
                lineno, epoch, assigned);
    }
    return reg;
}

}  // namespace fleet
}  // namespace snip
