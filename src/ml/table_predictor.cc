#include "ml/table_predictor.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace snip {
namespace ml {

namespace {

/**
 * Apply @p op(key, value) to every row's key and its value in column
 * @p col, sweeping the column linearly in streamBlockRows() blocks.
 */
template <typename Op>
void
sweepColumn(const DatasetView &ds, size_t col, std::vector<uint64_t> &keys,
            Op op)
{
    const uint64_t *v = ds.columnData(col);
    size_t n = ds.numRows();
    size_t blk = std::max<size_t>(1, ds.streamBlockRows());
    for (size_t base = 0; base < n; base += blk) {
        size_t end = std::min(n, base + blk);
        for (size_t r = base; r < end; ++r)
            op(keys[r], v[r]);
        ds.noteStreamed((end - base) * sizeof(uint64_t));
    }
}

/** Rows per tally bucket the bucket count is sized for. */
constexpr size_t kRowsPerBucket = 8;
/** Ranges up to this length are insertion-sorted. */
constexpr size_t kInsertionSortMax = 16;

/**
 * Stable sort of [first, last): insertion sort for short ranges
 * (no temporary buffer), std::stable_sort for long unsorted ones.
 */
template <typename It, typename Less>
void
stableSortRange(It first, It last, Less less)
{
    if (static_cast<size_t>(last - first) <= kInsertionSortMax) {
        for (It i = first; i != last; ++i) {
            auto v = *i;
            It j = i;
            for (; j != first && less(v, *(j - 1)); --j)
                *j = *(j - 1);
            *j = v;
        }
    } else if (!std::is_sorted(first, last, less)) {
        std::stable_sort(first, last, less);
    }
}

/** One training row: its key, its label and its position in `rows`. */
struct TallyItem {
    uint64_t key, label;
    size_t pos;
};

/**
 * The rows of @p rows ordered by (key, label, position). Rows are
 * scattered in `rows` order into buckets on their keys' top bits
 * (keys are uniform hashes; ~kRowsPerBucket rows a bucket), each
 * bucket is stable-sorted by key, and each multi-row key group by
 * label. Buckets ascend with the top bits, so keys ascend overall.
 */
std::vector<TallyItem>
sortedTally(const DatasetView &ds, const std::vector<uint64_t> &keys,
            const std::vector<size_t> &rows)
{
    size_t n = rows.size();
    int bits = 0;
    while (bits < 63 && (size_t{1} << bits) * kRowsPerBucket < n)
        ++bits;
    // (k >> 1) >> (63 - bits): the top `bits` bits, 0 when bits == 0.
    auto bucket = [bits](uint64_t k) {
        return static_cast<size_t>((k >> 1) >> (63 - bits));
    };
    size_t nbuckets = size_t{1} << bits;

    // Counting scatter: after it, end[b] is the end of bucket b.
    std::vector<size_t> end(nbuckets + 1, 0);
    for (size_t r : rows)
        ++end[bucket(keys[r]) + 1];
    for (size_t b = 0; b < nbuckets; ++b)
        end[b + 1] += end[b];
    std::vector<TallyItem> items(n);
    for (size_t i = 0; i < n; ++i) {
        uint64_t k = keys[rows[i]];
        items[end[bucket(k)]++] = {k, ds.label(rows[i]), i};
    }

    auto by_key = [](const TallyItem &x, const TallyItem &y) {
        return x.key < y.key;
    };
    auto by_label = [](const TallyItem &x, const TallyItem &y) {
        return x.label < y.label;
    };
    TallyItem *first = items.data();
    for (size_t b = 0; b < nbuckets; ++b) {
        TallyItem *last = items.data() + end[b];
        stableSortRange(first, last, by_key);
        for (TallyItem *g = first; g != last;) {
            TallyItem *h = g + 1;
            while (h != last && h->key == g->key)
                ++h;
            if (h - g > 1)
                stableSortRange(g, h, by_label);
            g = h;
        }
        first = last;
    }
    return items;
}

}  // namespace

std::vector<uint64_t>
TablePredictor::rowKeys(const DatasetView &ds,
                        const std::vector<size_t> &cols)
{
    std::vector<uint64_t> keys(ds.numRows(), kKeySeed);
    for (size_t c : cols)
        sweepColumn(ds, c, keys,
                    [c](uint64_t &k, uint64_t v) { k += term(c, v); });
    return keys;
}

void
TablePredictor::dropColumn(const DatasetView &ds, size_t col,
                           std::vector<uint64_t> &keys)
{
    if (keys.size() != ds.numRows())
        util::panic("TablePredictor::dropColumn: %zu keys for %zu rows",
                    keys.size(), ds.numRows());
    sweepColumn(ds, col, keys,
                [col](uint64_t &k, uint64_t v) { k -= term(col, v); });
}

uint64_t
TablePredictor::keyOf(const DatasetView &ds, size_t row) const
{
    uint64_t k = kKeySeed;
    for (size_t c : cols_)
        k += term(c, ds.value(row, c));
    return k;
}

void
TablePredictor::train(const DatasetView &ds,
                      const std::vector<size_t> &feature_cols)
{
    std::vector<size_t> rows(ds.numRows());
    for (size_t i = 0; i < rows.size(); ++i)
        rows[i] = i;
    trainOnRows(ds, feature_cols, rows);
}

void
TablePredictor::trainOnRows(const DatasetView &ds,
                            const std::vector<size_t> &feature_cols,
                            const std::vector<size_t> &rows)
{
    trainOnKeys(ds, feature_cols, rowKeys(ds, feature_cols), rows);
}

void
TablePredictor::trainOnKeys(const DatasetView &ds,
                            const std::vector<size_t> &feature_cols,
                            std::vector<uint64_t> keys,
                            const std::vector<size_t> &rows)
{
    if (keys.size() != ds.numRows())
        util::panic("TablePredictor::trainOnKeys: %zu keys for %zu rows",
                    keys.size(), ds.numRows());
    cols_ = feature_cols;
    keys_ = std::move(keys);
    keysView_ = ds.id();
    fkeys_.clear();
    flabels_.clear();
    fallbackLabel_ = kNoLabel;

    // Rows grouped by key, then by label. Entries come out in
    // ascending-key order. Within a key, labels ascend, so a
    // strictly-greater test keeps the smallest label of the greatest
    // weight.
    std::vector<TallyItem> items = sortedTally(ds, keys_, rows);
    // Weight per label, for the fallback.
    std::unordered_map<uint64_t, uint64_t> by_label;
    for (size_t i = 0; i < items.size();) {
        uint64_t key = items[i].key;
        uint64_t best_w = 0;
        uint64_t majority = kNoLabel;
        while (i < items.size() && items[i].key == key) {
            uint64_t label = items[i].label, w = 0;
            for (; i < items.size() && items[i].key == key &&
                   items[i].label == label;
                 ++i)
                w += ds.weight(rows[items[i].pos]);
            if (w > best_w) {
                best_w = w;
                majority = label;
            }
            by_label[label] += w;
        }
        fkeys_.push_back(key);
        flabels_.push_back(majority);
    }
    ntrained_ = fkeys_.size();

    // Fallback: the same rule over all rows. The totals are in hash
    // order, so the smallest label breaks a weight tie explicitly.
    uint64_t best_w = 0;
    for (const auto &[label, w] : by_label) {
        if (w > best_w || (w == best_w && best_w > 0 &&
                           label < fallbackLabel_)) {
            best_w = w;
            fallbackLabel_ = label;
        }
    }

    rebuildIndex();
}

void
TablePredictor::rebuildIndex()
{
    // A power-of-two open-addressing slot index (load factor <= 0.5)
    // over the flat entry columns, the deployed FrozenTable shape.
    // Lookups are one probe + column reads, no node allocation or
    // pointer chasing. Keys are unique, so any fill order works.
    size_t n = fkeys_.size();
    size_t cap = 4;
    while (cap < 2 * n)
        cap <<= 1;
    fslots_.assign(cap, Slot{0, fallbackLabel_, 0});
    size_t mask = cap - 1;
    for (size_t i = 0; i < n; ++i) {
        size_t idx = static_cast<size_t>(fkeys_[i]) & mask;
        while (fslots_[idx].entry != 0)
            idx = (idx + 1) & mask;
        fslots_[idx] = {fkeys_[i], flabels_[i],
                        static_cast<uint32_t>(i + 1)};
    }
}

uint64_t
TablePredictor::predict(const DatasetView &ds, size_t row) const
{
    return labelOf(keyAt(ds, row));
}

void
TablePredictor::predictRows(const DatasetView &ds, size_t row_begin,
                            size_t row_end, uint64_t *out_labels) const
{
    uint64_t *out = out_labels;  // row r lands at out[r - row_begin]
    if (ds.id() != keysView_) {
        for (size_t r = row_begin; r < row_end; ++r)
            *out++ = labelOf(keyOf(ds, r));
        return;
    }
    // On the trained view, one stored key and one probe per row.
    const uint64_t *keys = keys_.data();
    for (size_t r = row_begin; r < row_end; ++r)
        *out++ = labelOf(keys[r]);
}

uint64_t
TablePredictor::permutedWrong(const DatasetView &ds, size_t col,
                              const uint64_t *delta) const
{
    size_t n = ds.numRows();
    const uint64_t *labels = ds.labelData();
    const uint64_t *weights = ds.weightData();
    bool moves = std::find(cols_.begin(), cols_.end(), col) != cols_.end();
    uint64_t wrong = 0;
    if (moves && ds.id() == keysView_) {
        // The PFI inner loop: stored key plus delta, one probe. The
        // miss mask keeps the per-row outcome, random under a
        // permutation, off the branch predictor.
        const uint64_t *keys = keys_.data();
        for (size_t r = 0; r < n; ++r) {
            uint64_t miss = labelOf(keys[r] + delta[r]) != labels[r];
            wrong += weights[r] & (0 - miss);
        }
        return wrong;
    }
    for (size_t r = 0; r < n; ++r) {
        uint64_t k = keyAt(ds, r) + (moves ? delta[r] : 0);
        if (labelOf(k) != labels[r])
            wrong += weights[r];
    }
    return wrong;
}

bool
TablePredictor::lookupLabel(const DatasetView &ds, size_t row,
                            uint64_t &label) const
{
    const Slot &s = fslots_[slotOf(keyAt(ds, row))];
    if (s.entry == 0)
        return false;
    label = s.label;
    return true;
}

void
TablePredictor::insertRow(const DatasetView &ds, size_t row)
{
    // Append-only and first-wins: a key already present, trained or
    // inserted, keeps its entry.
    uint64_t key = keyAt(ds, row);
    size_t slot = slotOf(key);
    if (fslots_[slot].entry != 0)
        return;
    fkeys_.push_back(key);
    flabels_.push_back(ds.label(row));
    if (2 * fkeys_.size() > fslots_.size())
        rebuildIndex();
    else
        fslots_[slot] = {key, flabels_.back(),
                         static_cast<uint32_t>(fkeys_.size())};
}

uint64_t
TablePredictor::fingerprint() const
{
    uint64_t h = util::mixCombine(0x7ab1ef9ULL, ntrained_);
    for (size_t c : cols_)
        h = util::mixCombine(h, c);
    auto mix_entry = [&](size_t i) {
        h = util::mixCombine(h, fkeys_[i]);
        h = util::mixCombine(h, flabels_[i]);
    };
    for (size_t i = 0; i < ntrained_; ++i)
        mix_entry(i);
    h = util::mixCombine(h, fallbackLabel_);
    std::vector<size_t> inserted;
    inserted.reserve(fkeys_.size() - ntrained_);
    for (size_t i = ntrained_; i < fkeys_.size(); ++i)
        inserted.push_back(i);
    std::sort(inserted.begin(), inserted.end(),
              [this](size_t a, size_t b) { return fkeys_[a] < fkeys_[b]; });
    for (size_t i : inserted)
        mix_entry(i);
    return h ? h : 1;
}

double
weightedErrorRate(const TablePredictor &p, const DatasetView &ds)
{
    // Batched so the stored row keys are read in one pass per block,
    // in blocks small enough to stay cache-resident.
    constexpr size_t kBlock = 512;
    uint64_t labels[kBlock];
    uint64_t wrong = 0;
    size_t n = ds.numRows();
    for (size_t begin = 0; begin < n; begin += kBlock) {
        size_t end = std::min(n, begin + kBlock);
        p.predictRows(ds, begin, end, labels);
        for (size_t r = begin; r < end; ++r) {
            if (labels[r - begin] != ds.label(r))
                wrong += ds.weight(r);
        }
    }
    return static_cast<double>(wrong) /
           static_cast<double>(ds.totalWeight());
}

}  // namespace ml
}  // namespace snip
