#include "ml/table_predictor.h"

#include <algorithm>
#include <tuple>

#include "util/logging.h"

namespace snip {
namespace ml {

size_t
TablePredictor::probe(uint64_t key) const
{
    if (fslots_.empty())
        return SIZE_MAX;
    size_t mask = fslots_.size() - 1;
    size_t idx = static_cast<size_t>(key) & mask;
    for (size_t step = 0; step < fslots_.size(); ++step) {
        uint32_t v = fslots_[idx];
        if (v == 0)
            return SIZE_MAX;
        if (fkeys_[v - 1] == key)
            return static_cast<size_t>(v - 1);
        idx = (idx + 1) & mask;
    }
    return SIZE_MAX;
}

TablePredictor::Hit
TablePredictor::find(uint64_t key) const
{
    Hit h;
    size_t e = probe(key);
    if (e != SIZE_MAX) {
        h.hit = true;
        h.label = flabels_[e];
        h.repr = freprs_[e];
        return h;
    }
    auto it = delta_.find(key);
    if (it != delta_.end()) {
        h.hit = true;
        h.label = it->second.majority_label;
        h.repr = it->second.representative_row;
    }
    return h;
}

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

size_t
TablePredictor::selectedOrNone(size_t col) const
{
    return std::find(cols_.begin(), cols_.end(), col) != cols_.end()
               ? col
               : SIZE_MAX;
}

uint64_t
TablePredictor::keyOf(const DatasetView &ds, size_t row, size_t override_col,
                      uint64_t override_value) const
{
    uint64_t k = kKeySeed;
    for (size_t c : cols_)
        k += term(c, c == override_col ? override_value
                                        : ds.value(row, c));
    return k;
}

uint64_t
TablePredictor::keyAt(const DatasetView &ds, size_t row, size_t override_col,
                      uint64_t override_value) const
{
    if (ds.id() != keysView_)
        return keyOf(ds, row, override_col, override_value);
    uint64_t k = keys_[row];
    if (override_col != SIZE_MAX)
        k += term(override_col, override_value) -
             term(override_col, ds.value(row, override_col));
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
    delta_.clear();
    fkeys_.clear();
    flabels_.clear();
    freprs_.clear();
    fdistinct_.clear();
    fallbackLabel_ = kNoLabel;
    fallbackRow_ = SIZE_MAX;
    ambiguousWeightFraction_ = 0.0;

    // One sort groups rows by key, then by label, then by position in
    // `rows`: the first row of a label run is its earliest row.
    struct Item {
        uint64_t key, label;
        size_t pos;
    };
    std::vector<Item> items(rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        items[i] = {keys_[rows[i]], ds.label(rows[i]), i};
    std::sort(items.begin(), items.end(), [](const Item &x, const Item &y) {
        return std::tie(x.key, x.label, x.pos) <
               std::tie(y.key, y.label, y.pos);
    });

    // Entries come out in ascending-key order. Within a key, labels
    // ascend, so a strictly-greater test keeps the smallest label of
    // the greatest weight.
    struct LabelRun {
        uint64_t label, weight;
        size_t pos;
    };
    std::vector<LabelRun> runs;
    uint64_t trained_weight = 0, ambiguous_weight = 0;
    for (size_t i = 0; i < items.size();) {
        uint64_t key = items[i].key;
        uint64_t key_weight = 0, best_w = 0;
        size_t first_run = runs.size();
        Entry e;
        while (i < items.size() && items[i].key == key) {
            LabelRun run{items[i].label, 0, items[i].pos};
            for (; i < items.size() && items[i].key == key &&
                   items[i].label == run.label;
                 ++i)
                run.weight += ds.weight(rows[items[i].pos]);
            if (run.weight > best_w) {
                best_w = run.weight;
                e.majority_label = run.label;
                e.representative_row = rows[run.pos];
            }
            key_weight += run.weight;
            runs.push_back(run);
        }
        e.distinct_labels = static_cast<uint32_t>(runs.size() - first_run);
        if (e.distinct_labels > 1)
            ambiguous_weight += key_weight;
        trained_weight += key_weight;
        fkeys_.push_back(key);
        flabels_.push_back(e.majority_label);
        freprs_.push_back(e.representative_row);
        fdistinct_.push_back(e.distinct_labels);
    }
    ambiguousWeightFraction_ =
        trained_weight ? static_cast<double>(ambiguous_weight) /
                             static_cast<double>(trained_weight)
                       : 0.0;

    // Fallback: the same rule over all rows, from the label runs
    // regrouped by label.
    std::sort(runs.begin(), runs.end(),
              [](const LabelRun &x, const LabelRun &y) {
                  return std::tie(x.label, x.pos) < std::tie(y.label, y.pos);
              });
    uint64_t best_w = 0;
    for (size_t i = 0; i < runs.size();) {
        uint64_t label = runs[i].label, w = 0;
        size_t pos = runs[i].pos;
        for (; i < runs.size() && runs[i].label == label; ++i)
            w += runs[i].weight;
        if (w > best_w) {
            best_w = w;
            fallbackLabel_ = label;
            fallbackRow_ = rows[pos];
        }
    }

    // Freeze: a power-of-two open-addressing slot index (load factor
    // <= 0.5) over the flat entry columns, the deployed FrozenTable
    // shape. Lookups from here on are one probe + column reads, no
    // node allocation or pointer chasing.
    size_t n = fkeys_.size();
    size_t cap = 4;
    while (cap < 2 * n)
        cap <<= 1;
    fslots_.assign(cap, 0);
    size_t mask = cap - 1;
    for (size_t i = 0; i < n; ++i) {
        size_t idx = static_cast<size_t>(fkeys_[i]) & mask;
        while (fslots_[idx] != 0)
            idx = (idx + 1) & mask;
        fslots_[idx] = static_cast<uint32_t>(i + 1);
    }
}

uint64_t
TablePredictor::predict(const DatasetView &ds, size_t row,
                        size_t override_col,
                        uint64_t override_value) const
{
    Hit h = find(keyAt(ds, row, selectedOrNone(override_col),
                       override_value));
    return h.hit ? h.label : fallbackLabel_;
}

void
TablePredictor::predictRows(const DatasetView &ds, size_t row_begin,
                            size_t row_end, uint64_t *out_labels,
                            size_t override_col,
                            const uint64_t *override_values) const
{
    if (override_col != SIZE_MAX && override_values == nullptr)
        util::panic("TablePredictor::predictRows: override_col without "
                    "override_values");
    // The PFI inner loop: on the trained view, the stored key with
    // the permuted column's term swapped, O(1) per row.
    override_col = selectedOrNone(override_col);
    for (size_t r = row_begin; r < row_end; ++r) {
        uint64_t ov = override_col != SIZE_MAX ? override_values[r] : 0;
        Hit h = find(keyAt(ds, r, override_col, ov));
        out_labels[r - row_begin] = h.hit ? h.label : fallbackLabel_;
    }
}

size_t
TablePredictor::predictRow(const DatasetView &ds, size_t row,
                           size_t override_col,
                           uint64_t override_value) const
{
    Hit h = find(keyAt(ds, row, selectedOrNone(override_col),
                       override_value));
    return h.hit ? h.repr : fallbackRow_;
}

bool
TablePredictor::lookupLabel(const DatasetView &ds, size_t row,
                            uint64_t &label) const
{
    Hit h = find(keyAt(ds, row, SIZE_MAX, 0));
    if (!h.hit)
        return false;
    label = h.label;
    return true;
}

void
TablePredictor::insertRow(const DatasetView &ds, size_t row)
{
    // Online inserts never touch the frozen arrays; first-wins
    // semantics across both layers (frozen keys shadow the delta).
    uint64_t key = keyAt(ds, row, SIZE_MAX, 0);
    if (probe(key) != SIZE_MAX || delta_.count(key))
        return;
    Entry e;
    e.majority_label = ds.label(row);
    e.representative_row = row;
    e.distinct_labels = 1;
    delta_[key] = e;
}

uint64_t
TablePredictor::fingerprint() const
{
    uint64_t h = util::mixCombine(0x7ab1ef9ULL, fkeys_.size());
    for (size_t c : cols_)
        h = util::mixCombine(h, c);
    for (size_t i = 0; i < fkeys_.size(); ++i) {
        h = util::mixCombine(h, fkeys_[i]);
        h = util::mixCombine(h, flabels_[i]);
        h = util::mixCombine(h, static_cast<uint64_t>(freprs_[i]));
    }
    h = util::mixCombine(h, fallbackLabel_);
    h = util::mixCombine(h, static_cast<uint64_t>(fallbackRow_));
    std::vector<uint64_t> dkeys;
    dkeys.reserve(delta_.size());
    for (const auto &kv : delta_)
        dkeys.push_back(kv.first);
    std::sort(dkeys.begin(), dkeys.end());
    for (uint64_t k : dkeys) {
        const Entry &e = delta_.at(k);
        h = util::mixCombine(h, k);
        h = util::mixCombine(h, e.majority_label);
        h = util::mixCombine(
            h, static_cast<uint64_t>(e.representative_row));
    }
    return h ? h : 1;
}

double
TablePredictor::meanLabelsPerKey() const
{
    size_t n = fkeys_.size() + delta_.size();
    if (n == 0)
        return 0.0;
    double sum = 0.0;
    for (uint32_t d : fdistinct_)
        sum += d;
    for (const auto &kv : delta_)
        sum += kv.second.distinct_labels;
    return sum / static_cast<double>(n);
}

}  // namespace ml
}  // namespace snip
