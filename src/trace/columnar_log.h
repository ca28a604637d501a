/**
 * @file
 * Binary columnar training file ("SNCT"): the replayed profile in
 * exactly the shape the ML layer trains on. For each event type it
 * holds one *training section* — feature/label/weight/output columns,
 * column-major — which ml::ChunkedDataset maps in place, so the
 * out-of-core Shrink (core::buildSnipModel on a mapped file) never
 * materializes the profile. `snip select --out` writes one from a
 * recorded SNPE event trace; TrainingWriter streams one of any size.
 *
 * Layout (little-endian, all array offsets 8-aligned):
 *
 *   header (32 B): magic "SNCT" u32, version u32, total_size u64,
 *     train_dir_off u64, ntrain u32, game_len u32
 *   game name bytes [game_len] at offset 32
 *   training directory at align8(32 + game_len): ntrain records of
 *     80 B, in ascending type order —
 *     type u32, nfeat u32, nout u32, crc u32, nrows u64, then six
 *     u64 offsets: feat_ids -> u32[nfeat] (ascending field ids),
 *     feat_cols -> u64[nfeat * nrows] column-major feature values
 *     (the union-of-locations matrix; kTrainingAbsent marks "record
 *     did not read this location"), labels -> u64[nrows] output-
 *     signature hashes, weights -> u64[nrows] max(1, instructions),
 *     out_ids -> u32[nout] and out_cols -> u64[nout * nrows] (the
 *     output fields, for reconstructing records, e.g. table
 *     prefill) — and a reserved u64. crc chains the per-column
 *     crc32 words (see columnar_log.cc) so bit flips anywhere in a
 *     section are rejected at attach() time.
 *   each section's arrays, in the order feat_ids, out_ids,
 *     feat_cols, labels, weights, out_cols.
 *
 * Like the SNPE decoder, attach()/open() validate everything before
 * trusting it: a malformed, truncated, bit-flipped or other-version
 * file yields an error Status, never UB. Section payloads are CRC-
 * verified with a streaming scan (block-sized, with MADV_DONTNEED
 * between blocks on mmap-backed views, so verifying a multi-GB
 * file never grows RSS past one block).
 */

#ifndef SNIP_TRACE_COLUMNAR_LOG_H
#define SNIP_TRACE_COLUMNAR_LOG_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "trace/profile.h"
#include "util/status.h"

namespace snip {
namespace trace {

/** Columnar training file magic ("SNCT"), first word of the layout. */
constexpr uint32_t kColumnarMagic = 0x534e4354;
/** The one format version attach() reads. */
constexpr uint32_t kColumnarVersion = 3;

/**
 * "Record did not read this location" marker in training feature /
 * output columns. ml::kAbsent mirrors this value (static_assert'd
 * where the two meet) so mapped columns feed the ML layer verbatim.
 */
constexpr uint64_t kTrainingAbsent = 0xab5e9700ab5e9700ULL;

/**
 * Immutable reader over a columnar training buffer. All methods are
 * const; any number of threads may read concurrently.
 */
class ColumnarLog
{
  public:
    /**
     * Encode a profile's per-type training sections: for every
     * event type with records, the union-of-locations feature
     * matrix, output-signature labels, instruction weights and
     * output columns, in the exact shape ml::ChunkedDataset maps.
     */
    static util::Status encodeTraining(const Profile &profile,
                                       std::vector<uint8_t> *out);

    /**
     * Attach a validated view over columnar bytes. Every offset,
     * count and type code is bounds-checked — and every section
     * CRC-verified — before the view is returned. @p owner keeps
     * the backing buffer alive (zero-copy); misaligned buffers are
     * copied into owned aligned storage. @p mmap_backed marks the
     * buffer as a private file mapping whose clean pages the reader
     * may drop (releaseResidency / the streaming CRC verify).
     */
    static util::Result<std::shared_ptr<const ColumnarLog>>
    attach(const uint8_t *data, size_t size,
           std::shared_ptr<const void> owner,
           bool mmap_backed = false);

    /**
     * Open a columnar training file: mmap(2) when available (the
     * mapping is dropped with the last reader reference), falling
     * back to reading the file into an owned buffer.
     */
    static util::Result<std::shared_ptr<const ColumnarLog>>
    open(const std::string &path);

    /** Write encoded bytes to a file; error Status on I/O errors. */
    static util::Status save(const std::vector<uint8_t> &bytes,
                             const std::string &path);

    /** Game name recorded with the profile. */
    const std::string &game() const { return game_; }
    /** Whether the buffer is a borrowed (mmap/attach) view. */
    bool zeroCopy() const { return owned_.empty(); }
    /** Whether the buffer is a droppable private file mapping. */
    bool mmapBacked() const { return mmap_backed_; }

    /** Mapped training section of one event type. */
    struct TrainingCols {
        uint32_t nfeat = 0;
        uint32_t nout = 0;
        uint64_t nrows = 0;
        const uint32_t *feat_ids = nullptr;  // ascending field ids
        const uint64_t *feat_cols = nullptr; // column-major
        const uint64_t *labels = nullptr;
        const uint64_t *weights = nullptr;
        const uint32_t *out_ids = nullptr;   // ascending field ids
        const uint64_t *out_cols = nullptr;  // column-major
    };

    /** Training section for @p t, or nullptr when absent. */
    const TrainingCols *training(events::EventType t) const
    {
        int i = static_cast<int>(t);
        return has_training_[i] ? &training_[i] : nullptr;
    }

    /** Event types with training sections, in enum order. */
    std::vector<events::EventType> trainingTypes() const;

    /**
     * Drop resident pages of an mmap-backed view (MADV_DONTNEED on
     * the private read-only mapping: clean pages refault from the
     * page cache on next touch). No-op otherwise; never changes the
     * bytes seen through the view.
     */
    void releaseResidency() const;

  private:
    ColumnarLog() = default;

    util::Status decode();

    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    std::shared_ptr<const void> owner_;
    /** Owned storage (read fallback / misaligned attach). */
    std::vector<uint64_t> owned_;

    std::string game_;
    bool mmap_backed_ = false;
    std::array<TrainingCols, events::kNumEventTypes> training_{};
    std::array<bool, events::kNumEventTypes> has_training_{};
};

/**
 * Streaming writer of a training file that holds ONE section, for
 * generating multi-GB training files with bounded memory: the full
 * layout (declared row count) is reserved up front, rows are
 * appended through a fixed-size buffer that flushes each column
 * slice to its file offset (pwrite), per-column CRCs are chained
 * across flushes, and finish() patches the section CRC.
 * The file is invalid (attach() rejects it) until finish() returns
 * Ok with exactly the declared number of rows added.
 */
class TrainingWriter
{
  public:
    TrainingWriter();
    ~TrainingWriter();
    TrainingWriter(const TrainingWriter &) = delete;
    TrainingWriter &operator=(const TrainingWriter &) = delete;

    /**
     * Create @p path and reserve the layout. @p feat_ids /
     * @p out_ids must be ascending; @p nrows is the exact row count
     * finish() will require.
     */
    util::Status create(const std::string &path,
                        const std::string &game, events::EventType t,
                        const std::vector<uint32_t> &feat_ids,
                        const std::vector<uint32_t> &out_ids,
                        uint64_t nrows);

    /**
     * Append one row: @p feat / @p out are parallel to the id
     * arrays given to create() (kTrainingAbsent for unread
     * locations); @p weight must be >= 1.
     */
    util::Status addRow(const uint64_t *feat, uint64_t label,
                        uint64_t weight, const uint64_t *out);

    /** Flush, patch CRCs, close. Errors unless rows == declared. */
    util::Status finish();

  private:
    util::Status flush();

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace trace
}  // namespace snip

#endif  // SNIP_TRACE_COLUMNAR_LOG_H
