#include "trace/columnar_log.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "events/field.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace snip {
namespace trace {

namespace {

constexpr size_t kHeaderBytes = 32;
constexpr size_t kTrainRecBytes = 80;
/** Offset of the crc word inside a directory record. */
constexpr size_t kRecCrcOffset = 12;

/** Bytes scanned per step of the streaming CRC verify. */
constexpr uint64_t kVerifyBlockBytes = uint64_t{16} << 20;

uint32_t
readU32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

uint64_t
readU64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

void
writeU32(uint8_t *p, uint32_t v)
{
    std::memcpy(p, &v, 4);
}

void
writeU64(uint8_t *p, uint64_t v)
{
    std::memcpy(p, &v, 8);
}

size_t
align8(size_t off)
{
    return (off + 7) & ~size_t{7};
}

/**
 * Advise the kernel to drop the (clean, read-only, MAP_PRIVATE)
 * pages behind [p, p + len): they refault from the page cache on
 * the next touch, so this only caps RSS, never changes bytes.
 */
void
dropPages(const void *p, size_t len)
{
    long page = ::sysconf(_SC_PAGESIZE);
    if (page <= 0 || len == 0)
        return;
    uintptr_t mask = static_cast<uintptr_t>(page) - 1;
    uintptr_t start = reinterpret_cast<uintptr_t>(p) & ~mask;
    uintptr_t end = reinterpret_cast<uintptr_t>(p) + len;
    ::madvise(reinterpret_cast<void *>(start), end - start,
              MADV_DONTNEED);
}

/**
 * CRC of @p n u64s in bounded-RSS steps: on an mmap-backed view
 * every scanned block is madvised away after hashing, so verifying
 * a multi-GB column costs one block of residency.
 */
uint32_t
columnCrc(const uint64_t *p, uint64_t n, bool mmap_backed)
{
    const uint8_t *bytes = reinterpret_cast<const uint8_t *>(p);
    uint64_t total = n * 8;
    uint32_t crc = 0;
    for (uint64_t off = 0; off < total; off += kVerifyBlockBytes) {
        uint64_t len = std::min(kVerifyBlockBytes, total - off);
        crc = util::crc32(bytes + off, len, crc);
        if (mmap_backed)
            dropPages(bytes + off, len);
    }
    return crc;
}

/**
 * Section CRC: the id arrays, then one chained crc32 word per value
 * column (features, labels, weights, outputs, in that order). Word
 * chaining is what lets TrainingWriter accumulate per-column CRCs
 * across incremental flushes and still land on this exact value.
 */
uint32_t
trainingCrc(const ColumnarLog::TrainingCols &tc, bool mmap_backed)
{
    uint32_t crc = util::crc32(tc.feat_ids, tc.nfeat * 4, 0);
    crc = util::crc32(tc.out_ids, tc.nout * 4, crc);
    auto mix = [&](const uint64_t *col) {
        uint32_t c = columnCrc(col, tc.nrows, mmap_backed);
        crc = util::crc32(&c, 4, crc);
    };
    for (uint32_t f = 0; f < tc.nfeat; ++f)
        mix(tc.feat_cols + f * tc.nrows);
    mix(tc.labels);
    mix(tc.weights);
    for (uint32_t o = 0; o < tc.nout; ++o)
        mix(tc.out_cols + o * tc.nrows);
    return crc;
}

/** One training section's directory record and array offsets. */
struct SectionLayout {
    events::EventType type{};
    const std::vector<uint32_t> *feat_ids = nullptr;
    const std::vector<uint32_t> *out_ids = nullptr;
    uint64_t nrows = 0;
    size_t feat_ids_off = 0, out_ids_off = 0, feat_cols_off = 0;
    size_t labels_off = 0, weights_off = 0, out_cols_off = 0;
};

/** Offset of the training directory after a @p game_len name. */
size_t
dirOffset(size_t game_len)
{
    return align8(kHeaderBytes + game_len);
}

/**
 * Assign every section's array offsets: header, game name, the
 * directory, then each section's arrays in directory order. Returns
 * the file size.
 */
size_t
layOut(size_t game_len, std::vector<SectionLayout> *secs)
{
    size_t off = dirOffset(game_len) + secs->size() * kTrainRecBytes;
    for (SectionLayout &s : *secs) {
        s.feat_ids_off = off;
        off = align8(off + s.feat_ids->size() * 4);
        s.out_ids_off = off;
        off = align8(off + s.out_ids->size() * 4);
        s.feat_cols_off = off;
        off += s.feat_ids->size() * s.nrows * 8;
        s.labels_off = off;
        off += s.nrows * 8;
        s.weights_off = off;
        off += s.nrows * 8;
        s.out_cols_off = off;
        off += s.out_ids->size() * s.nrows * 8;
    }
    return off;
}

/**
 * Write everything before the first value column into @p base: the
 * header, the game name, the directory records (crc 0, patched once
 * the columns are written) and every section's id arrays.
 */
void
writeHead(uint8_t *base, size_t total, const std::string &game,
          const std::vector<SectionLayout> &secs)
{
    writeU32(base + 0, kColumnarMagic);
    writeU32(base + 4, kColumnarVersion);
    writeU64(base + 8, total);
    writeU64(base + 16, dirOffset(game.size()));
    writeU32(base + 24, static_cast<uint32_t>(secs.size()));
    writeU32(base + 28, static_cast<uint32_t>(game.size()));
    std::memcpy(base + kHeaderBytes, game.data(), game.size());
    for (size_t i = 0; i < secs.size(); ++i) {
        const SectionLayout &s = secs[i];
        uint8_t *rec = base + dirOffset(game.size()) + i * kTrainRecBytes;
        writeU32(rec + 0, static_cast<uint32_t>(s.type));
        writeU32(rec + 4, static_cast<uint32_t>(s.feat_ids->size()));
        writeU32(rec + 8, static_cast<uint32_t>(s.out_ids->size()));
        writeU32(rec + kRecCrcOffset, 0);
        writeU64(rec + 16, s.nrows);
        writeU64(rec + 24, s.feat_ids_off);
        writeU64(rec + 32, s.feat_cols_off);
        writeU64(rec + 40, s.labels_off);
        writeU64(rec + 48, s.weights_off);
        writeU64(rec + 56, s.out_ids_off);
        writeU64(rec + 64, s.out_cols_off);
        writeU64(rec + 72, 0);  // reserved
        for (size_t f = 0; f < s.feat_ids->size(); ++f)
            writeU32(base + s.feat_ids_off + f * 4, (*s.feat_ids)[f]);
        for (size_t o = 0; o < s.out_ids->size(); ++o)
            writeU32(base + s.out_ids_off + o * 4, (*s.out_ids)[o]);
    }
}

}  // namespace

util::Status
ColumnarLog::encodeTraining(const Profile &profile,
                            std::vector<uint8_t> *out)
{
    // One section per event type present: the union-of-locations
    // feature matrix plus labels / weights / output columns — the
    // exact bytes ml::ChunkedDataset maps, built here once offline.
    std::vector<events::EventType> types = profile.typesPresent();
    std::vector<std::vector<const games::HandlerExecution *>> recs;
    std::vector<std::vector<uint32_t>> feat_ids(types.size());
    std::vector<std::vector<uint32_t>> out_ids(types.size());
    std::vector<SectionLayout> secs(types.size());
    for (size_t si = 0; si < types.size(); ++si) {
        recs.push_back(profile.ofType(types[si]));
        for (const auto *r : recs[si]) {
            for (const auto &fv : r->inputs)
                feat_ids[si].push_back(fv.id);
            for (const auto &fv : r->outputs)
                out_ids[si].push_back(fv.id);
        }
        for (auto *ids : {&feat_ids[si], &out_ids[si]}) {
            std::sort(ids->begin(), ids->end());
            ids->erase(std::unique(ids->begin(), ids->end()),
                       ids->end());
        }
        secs[si].type = types[si];
        secs[si].feat_ids = &feat_ids[si];
        secs[si].out_ids = &out_ids[si];
        secs[si].nrows = recs[si].size();
    }

    size_t total = layOut(profile.game.size(), &secs);
    out->assign(total, 0);
    uint8_t *base = out->data();
    writeHead(base, total, profile.game, secs);

    for (size_t si = 0; si < secs.size(); ++si) {
        const SectionLayout &s = secs[si];
        uint64_t nrows = s.nrows;
        size_t nfeat = s.feat_ids->size();
        size_t nout = s.out_ids->size();
        uint64_t *feat_cols =
            reinterpret_cast<uint64_t *>(base + s.feat_cols_off);
        uint64_t *labels =
            reinterpret_cast<uint64_t *>(base + s.labels_off);
        uint64_t *weights =
            reinterpret_cast<uint64_t *>(base + s.weights_off);
        uint64_t *out_cols =
            reinterpret_cast<uint64_t *>(base + s.out_cols_off);
        std::fill(feat_cols, feat_cols + nfeat * nrows,
                  kTrainingAbsent);
        std::fill(out_cols, out_cols + nout * nrows,
                  kTrainingAbsent);

        for (uint64_t row = 0; row < nrows; ++row) {
            const games::HandlerExecution *r = recs[si][row];
            // Inputs/outputs are canonical (ascending ids): lockstep
            // walk against the sorted union, as the in-memory
            // Dataset constructor does.
            size_t col = 0;
            for (const auto &fv : r->inputs) {
                while (col < nfeat && (*s.feat_ids)[col] < fv.id)
                    ++col;
                if (col < nfeat && (*s.feat_ids)[col] == fv.id)
                    feat_cols[col * nrows + row] = fv.value;
            }
            size_t oc = 0;
            for (const auto &fv : r->outputs) {
                while (oc < nout && (*s.out_ids)[oc] < fv.id)
                    ++oc;
                if (oc < nout && (*s.out_ids)[oc] == fv.id)
                    out_cols[oc * nrows + row] = fv.value;
            }
            labels[row] = events::hashFields(r->outputs);
            weights[row] =
                std::max<uint64_t>(1, r->cpu_instructions);
        }

        TrainingCols tc;
        tc.nfeat = static_cast<uint32_t>(nfeat);
        tc.nout = static_cast<uint32_t>(nout);
        tc.nrows = nrows;
        tc.feat_ids = s.feat_ids->data();
        tc.out_ids = s.out_ids->data();
        tc.feat_cols = feat_cols;
        tc.labels = labels;
        tc.weights = weights;
        tc.out_cols = out_cols;
        writeU32(base + dirOffset(profile.game.size()) +
                     si * kTrainRecBytes + kRecCrcOffset,
                 trainingCrc(tc, false));
    }
    return util::Status::Ok();
}

util::Result<std::shared_ptr<const ColumnarLog>>
ColumnarLog::attach(const uint8_t *data, size_t size,
                    std::shared_ptr<const void> owner,
                    bool mmap_backed)
{
    auto log = std::shared_ptr<ColumnarLog>(new ColumnarLog());
    if (reinterpret_cast<uintptr_t>(data) % 8 == 0) {
        log->data_ = data;
        log->size_ = size;
        log->owner_ = std::move(owner);
        log->mmap_backed_ = mmap_backed;
    } else {
        log->owned_.assign((size + 7) / 8, 0);
        std::memcpy(log->owned_.data(), data, size);
        log->data_ = reinterpret_cast<uint8_t *>(log->owned_.data());
        log->size_ = size;
    }
    util::Status st = log->decode();
    if (!st.ok())
        return st;
    return util::Result<std::shared_ptr<const ColumnarLog>>(
        std::shared_ptr<const ColumnarLog>(std::move(log)));
}

util::Status
ColumnarLog::decode()
{
    const uint8_t *base = data_;
    const size_t size = size_;
    if (size < kHeaderBytes)
        return util::Status::Error("columnar: truncated header");
    if (readU32(base) != kColumnarMagic)
        return util::Status::Errorf("columnar: bad magic 0x%08x",
                                    readU32(base));
    uint32_t version = readU32(base + 4);
    if (version != kColumnarVersion)
        return util::Status::Errorf(
            "columnar: unsupported version %u (expected %u)", version,
            kColumnarVersion);
    if (readU64(base + 8) != size)
        return util::Status::Errorf(
            "columnar: size %llu does not match buffer size %zu",
            static_cast<unsigned long long>(readU64(base + 8)), size);
    uint64_t train_dir_off = readU64(base + 16);
    uint32_t ntrain = readU32(base + 24);
    uint32_t game_len = readU32(base + 28);
    if (ntrain > events::kNumEventTypes)
        return util::Status::Errorf("columnar: %u types out of range",
                                    ntrain);
    if (game_len > size - kHeaderBytes)
        return util::Status::Error("columnar: game name out of bounds");

    // Same span discipline as the frozen arena decoder: count
    // elements of elem bytes at off, inside the buffer and aligned
    // for the typed view over them.
    auto span = [&](uint64_t off, uint64_t count, uint64_t elem,
                    uint64_t align) {
        return off <= size && count <= (size - off) / elem &&
               off % align == 0;
    };
    if (!span(train_dir_off, ntrain, kTrainRecBytes, 8))
        return util::Status::Error(
            "columnar: training directory out of bounds");
    game_.assign(reinterpret_cast<const char *>(base + kHeaderBytes),
                 game_len);

    // Training sections: bounds-check every array, require
    // ascending id arrays, then CRC-verify the payload — a bit flip
    // anywhere in a section (including a label or weight column)
    // turns into an error Status here, never into silently wrong
    // training data.
    int prev_train = -1;
    for (uint32_t i = 0; i < ntrain; ++i) {
        const uint8_t *rec = base + train_dir_off + i * kTrainRecBytes;
        uint32_t type = readU32(rec + 0);
        if (type >= events::kNumEventTypes ||
            static_cast<int>(type) <= prev_train)
            return util::Status::Errorf(
                "columnar: bad or out-of-order training type %u",
                type);
        prev_train = static_cast<int>(type);
        TrainingCols tc;
        tc.nfeat = readU32(rec + 4);
        tc.nout = readU32(rec + 8);
        uint32_t want_crc = readU32(rec + 12);
        tc.nrows = readU64(rec + 16);
        uint64_t feat_ids_off = readU64(rec + 24);
        uint64_t feat_cols_off = readU64(rec + 32);
        uint64_t labels_off = readU64(rec + 40);
        uint64_t weights_off = readU64(rec + 48);
        uint64_t out_ids_off = readU64(rec + 56);
        uint64_t out_cols_off = readU64(rec + 64);
        if ((tc.nfeat != 0 && tc.nrows > UINT64_MAX / tc.nfeat) ||
            (tc.nout != 0 && tc.nrows > UINT64_MAX / tc.nout))
            return util::Status::Error(
                "columnar: training column count overflow");
        if (!span(feat_ids_off, tc.nfeat, 4, 4) ||
            !span(feat_cols_off, tc.nrows * tc.nfeat, 8, 8) ||
            !span(labels_off, tc.nrows, 8, 8) ||
            !span(weights_off, tc.nrows, 8, 8) ||
            !span(out_ids_off, tc.nout, 4, 4) ||
            !span(out_cols_off, tc.nrows * tc.nout, 8, 8))
            return util::Status::Errorf(
                "columnar: training type %u arrays out of bounds",
                type);
        tc.feat_ids =
            reinterpret_cast<const uint32_t *>(base + feat_ids_off);
        tc.feat_cols =
            reinterpret_cast<const uint64_t *>(base + feat_cols_off);
        tc.labels =
            reinterpret_cast<const uint64_t *>(base + labels_off);
        tc.weights =
            reinterpret_cast<const uint64_t *>(base + weights_off);
        tc.out_ids =
            reinterpret_cast<const uint32_t *>(base + out_ids_off);
        tc.out_cols =
            reinterpret_cast<const uint64_t *>(base + out_cols_off);
        for (uint32_t f = 1; f < tc.nfeat; ++f) {
            if (tc.feat_ids[f] <= tc.feat_ids[f - 1])
                return util::Status::Errorf(
                    "columnar: training type %u feature ids not "
                    "ascending", type);
        }
        for (uint32_t o = 1; o < tc.nout; ++o) {
            if (tc.out_ids[o] <= tc.out_ids[o - 1])
                return util::Status::Errorf(
                    "columnar: training type %u output ids not "
                    "ascending", type);
        }
        if (trainingCrc(tc, mmap_backed_) != want_crc)
            return util::Status::Errorf(
                "columnar: training type %u crc mismatch (corrupt "
                "or truncated section)", type);
        training_[type] = tc;
        has_training_[type] = true;
    }
    return util::Status::Ok();
}

std::vector<events::EventType>
ColumnarLog::trainingTypes() const
{
    std::vector<events::EventType> out;
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        if (has_training_[t])
            out.push_back(static_cast<events::EventType>(t));
    }
    return out;
}

void
ColumnarLog::releaseResidency() const
{
    if (!mmap_backed_ || size_ == 0)
        return;
    dropPages(data_, size_);
}

util::Result<std::shared_ptr<const ColumnarLog>>
ColumnarLog::open(const std::string &path)
{
    // RAII descriptor: every exit path — including an allocation
    // throw while building the fallback buffer or an error Status —
    // closes it exactly once.
    struct Fd {
        int fd = -1;
        ~Fd()
        {
            if (fd >= 0)
                ::close(fd);
        }
    } fd;
    fd.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd.fd < 0)
        return util::Status::Errorf("columnar: cannot open '%s'",
                                    path.c_str());
    struct stat st;
    if (::fstat(fd.fd, &st) != 0 || st.st_size < 0)
        return util::Status::Errorf("columnar: cannot stat '%s'",
                                    path.c_str());
    size_t size = static_cast<size_t>(st.st_size);
    if (size > 0) {
        void *p =
            ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.fd, 0);
        if (p != MAP_FAILED) {
            // shared_ptr(p, d) invokes d(p) if the control block
            // cannot be allocated, so the mapping cannot leak; a
            // failed attach() unmaps when `owner` dies.
            std::shared_ptr<const void> owner(
                p, [size](const void *q) {
                    ::munmap(const_cast<void *>(q), size);
                });
            return attach(static_cast<const uint8_t *>(p), size,
                          std::move(owner), /*mmap_backed=*/true);
        }
    }
    // mmap unavailable (or empty file): read through the descriptor
    // we already hold rather than reopening by path, so the bytes
    // come from the same file the stat above measured.
    std::vector<uint8_t> bytes(size);
    size_t off = 0;
    while (off < size) {
        ssize_t n = ::read(fd.fd, bytes.data() + off, size - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return util::Status::Errorf(
                "columnar: short read on '%s'", path.c_str());
        off += static_cast<size_t>(n);
    }
    auto owned =
        std::make_shared<std::vector<uint8_t>>(std::move(bytes));
    return attach(owned->data(), owned->size(), owned);
}

util::Status
ColumnarLog::save(const std::vector<uint8_t> &bytes,
                  const std::string &path)
{
    util::Status st = util::writeFileAtomic(path, bytes.data(), bytes.size());
    if (!st.ok())
        return util::Status::Errorf("columnar: %s", st.message().c_str());
    return st;
}

/* ----------------------------- TrainingWriter ------------------- */

/** Rows buffered per column before a flush. */
static constexpr size_t kWriterBufRows = 4096;

struct TrainingWriter::Impl {
    int fd = -1;
    std::string path;
    uint64_t nrows = 0;    // declared
    uint64_t added = 0;    // rows accepted so far
    uint64_t flushed = 0;  // rows already on disk
    uint32_t nfeat = 0, nout = 0;
    uint64_t feat_cols_off = 0, labels_off = 0, weights_off = 0;
    uint64_t out_cols_off = 0;
    uint64_t crc_field_off = 0;
    /** Per-column row buffers (kWriterBufRows capacity). */
    std::vector<std::vector<uint64_t>> feat_buf, out_buf;
    std::vector<uint64_t> label_buf, weight_buf;
    /** Per-column running CRCs, chained across flushes. */
    std::vector<uint32_t> feat_crc, out_crc;
    uint32_t label_crc = 0, weight_crc = 0;
    /** CRC prefix over the two id arrays (fixed at create()). */
    uint32_t ids_crc = 0;

    ~Impl()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

namespace {

/** Full pwrite with EINTR/short-write handling. */
util::Status
pwriteAll(int fd, const void *buf, size_t len, uint64_t off,
          const std::string &path)
{
    const uint8_t *p = static_cast<const uint8_t *>(buf);
    while (len > 0) {
        ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(off));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return util::Status::Errorf(
                "columnar: short write on '%s'", path.c_str());
        p += n;
        off += static_cast<uint64_t>(n);
        len -= static_cast<size_t>(n);
    }
    return util::Status::Ok();
}

}  // namespace

TrainingWriter::TrainingWriter() = default;
TrainingWriter::~TrainingWriter() = default;

util::Status
TrainingWriter::create(const std::string &path, const std::string &game,
                       events::EventType t,
                       const std::vector<uint32_t> &feat_ids,
                       const std::vector<uint32_t> &out_ids,
                       uint64_t nrows)
{
    if (impl_)
        return util::Status::Error("columnar: writer already open");
    for (auto *ids : {&feat_ids, &out_ids}) {
        for (size_t i = 1; i < ids->size(); ++i) {
            if ((*ids)[i] <= (*ids)[i - 1])
                return util::Status::Error(
                    "columnar: writer ids not ascending");
        }
    }

    auto impl = std::make_unique<Impl>();
    impl->path = path;
    impl->nrows = nrows;
    impl->nfeat = static_cast<uint32_t>(feat_ids.size());
    impl->nout = static_cast<uint32_t>(out_ids.size());

    // Same layout encodeTraining() emits for a single section. The
    // prefix (header + game + directory + id arrays) is tiny; build
    // it in memory and write it once. The directory CRC stays 0
    // until finish() patches it, so a crashed/abandoned write is
    // rejected by attach().
    std::vector<SectionLayout> secs(1);
    secs[0].type = t;
    secs[0].feat_ids = &feat_ids;
    secs[0].out_ids = &out_ids;
    secs[0].nrows = nrows;
    size_t total = layOut(game.size(), &secs);
    impl->feat_cols_off = secs[0].feat_cols_off;
    impl->labels_off = secs[0].labels_off;
    impl->weights_off = secs[0].weights_off;
    impl->out_cols_off = secs[0].out_cols_off;
    impl->crc_field_off = dirOffset(game.size()) + kRecCrcOffset;
    std::vector<uint8_t> prefix(impl->feat_cols_off, 0);
    writeHead(prefix.data(), total, game, secs);

    impl->ids_crc =
        util::crc32(feat_ids.data(), feat_ids.size() * 4, 0);
    impl->ids_crc = util::crc32(out_ids.data(), out_ids.size() * 4,
                                impl->ids_crc);

    impl->fd = ::open(path.c_str(),
                      O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (impl->fd < 0)
        return util::Status::Errorf("columnar: cannot create '%s'",
                                    path.c_str());
    if (::ftruncate(impl->fd, static_cast<off_t>(total)) != 0)
        return util::Status::Errorf("columnar: cannot size '%s'",
                                    path.c_str());
    util::Status st =
        pwriteAll(impl->fd, prefix.data(), prefix.size(), 0, path);
    if (!st.ok())
        return st;

    impl->feat_buf.assign(impl->nfeat, {});
    impl->out_buf.assign(impl->nout, {});
    for (auto &b : impl->feat_buf)
        b.reserve(kWriterBufRows);
    for (auto &b : impl->out_buf)
        b.reserve(kWriterBufRows);
    impl->label_buf.reserve(kWriterBufRows);
    impl->weight_buf.reserve(kWriterBufRows);
    impl->feat_crc.assign(impl->nfeat, 0);
    impl->out_crc.assign(impl->nout, 0);
    impl_ = std::move(impl);
    return util::Status::Ok();
}

util::Status
TrainingWriter::flush()
{
    Impl &im = *impl_;
    size_t n = im.label_buf.size();
    if (n == 0)
        return util::Status::Ok();
    // Each buffered column slice lands at its column's next file
    // position; CRCs chain across flushes, so the per-column CRC at
    // finish() equals a one-pass CRC of the full column.
    auto put = [&](const std::vector<uint64_t> &buf, uint64_t col_off,
                   uint64_t col_index, uint64_t col_rows,
                   uint32_t *crc) {
        uint64_t off =
            col_off + (col_index * col_rows + im.flushed) * 8;
        *crc = util::crc32(buf.data(), n * 8, *crc);
        return pwriteAll(im.fd, buf.data(), n * 8, off, im.path);
    };
    for (uint32_t f = 0; f < im.nfeat; ++f) {
        util::Status st = put(im.feat_buf[f], im.feat_cols_off, f,
                              im.nrows, &im.feat_crc[f]);
        if (!st.ok())
            return st;
        im.feat_buf[f].clear();
    }
    util::Status st = put(im.label_buf, im.labels_off, 0, im.nrows,
                          &im.label_crc);
    if (!st.ok())
        return st;
    st = put(im.weight_buf, im.weights_off, 0, im.nrows,
             &im.weight_crc);
    if (!st.ok())
        return st;
    for (uint32_t o = 0; o < im.nout; ++o) {
        st = put(im.out_buf[o], im.out_cols_off, o, im.nrows,
                 &im.out_crc[o]);
        if (!st.ok())
            return st;
        im.out_buf[o].clear();
    }
    im.label_buf.clear();
    im.weight_buf.clear();
    im.flushed += n;
    return util::Status::Ok();
}

util::Status
TrainingWriter::addRow(const uint64_t *feat, uint64_t label,
                       uint64_t weight, const uint64_t *out)
{
    if (!impl_)
        return util::Status::Error("columnar: writer not open");
    Impl &im = *impl_;
    if (im.added >= im.nrows)
        return util::Status::Error(
            "columnar: writer row count exceeded");
    if (weight == 0)
        return util::Status::Error("columnar: writer weight 0");
    for (uint32_t f = 0; f < im.nfeat; ++f)
        im.feat_buf[f].push_back(feat[f]);
    for (uint32_t o = 0; o < im.nout; ++o)
        im.out_buf[o].push_back(out[o]);
    im.label_buf.push_back(label);
    im.weight_buf.push_back(weight);
    ++im.added;
    if (im.label_buf.size() >= kWriterBufRows)
        return flush();
    return util::Status::Ok();
}

util::Status
TrainingWriter::finish()
{
    if (!impl_)
        return util::Status::Error("columnar: writer not open");
    Impl &im = *impl_;
    if (im.added != im.nrows)
        return util::Status::Errorf(
            "columnar: writer got %llu of %llu declared rows",
            static_cast<unsigned long long>(im.added),
            static_cast<unsigned long long>(im.nrows));
    util::Status st = flush();
    if (!st.ok())
        return st;
    // Assemble the section CRC exactly as trainingCrc() would from
    // the finished file, then patch the directory record.
    uint32_t crc = im.ids_crc;
    for (uint32_t f = 0; f < im.nfeat; ++f)
        crc = util::crc32(&im.feat_crc[f], 4, crc);
    crc = util::crc32(&im.label_crc, 4, crc);
    crc = util::crc32(&im.weight_crc, 4, crc);
    for (uint32_t o = 0; o < im.nout; ++o)
        crc = util::crc32(&im.out_crc[o], 4, crc);
    uint8_t word[4];
    writeU32(word, crc);
    st = pwriteAll(im.fd, word, 4, im.crc_field_off, im.path);
    if (!st.ok())
        return st;
    bool ok = ::fsync(im.fd) == 0 && ::close(im.fd) == 0;
    im.fd = -1;
    impl_.reset();
    if (!ok)
        return util::Status::Error("columnar: writer close failed");
    return util::Status::Ok();
}

}  // namespace trace
}  // namespace snip
