/**
 * @file
 * Lightweight statistics primitives used across the simulator:
 * running summaries, fixed-bin histograms, and empirical CDFs
 * (for the Fig. 7 input/output size characterization).
 */

#ifndef SNIP_UTIL_STATS_H
#define SNIP_UTIL_STATS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace snip {
namespace util {

/**
 * Running scalar summary: count / sum / mean / min / max / variance
 * via Welford's online algorithm.
 */
class Summary
{
  public:
    /** Add one sample. */
    void add(double x);
    /** Merge another summary into this one. */
    void merge(const Summary &other);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const;
    double max() const;
    /** Sample variance (n-1 denominator); 0 when count < 2. */
    double variance() const;
    /** Sample standard deviation. */
    double stddev() const;

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Empirical distribution: stores samples and answers quantile and
 * CDF queries. Used for size-spread characterization (Fig. 7).
 *
 * Thread safety: add() is single-writer and must not race with any
 * other call, but every const read (quantile/cdfAt/minValue/
 * maxValue/curve) is safe to issue concurrently from many threads on
 * a shared CDF — the first read sorts the samples exactly once under
 * an internal lock, later reads are lock-free.
 */
class EmpiricalCdf
{
  public:
    EmpiricalCdf() = default;
    EmpiricalCdf(const EmpiricalCdf &other);
    EmpiricalCdf &operator=(const EmpiricalCdf &other);

    /** Add a sample. Not safe concurrently with reads. */
    void add(double x);

    /** Number of samples. */
    size_t count() const { return samples_.size(); }

    /**
     * Quantile in [0, 1] via nearest-rank on the sorted samples.
     * Panics when empty.
     */
    double quantile(double q) const;

    /** Fraction of samples <= x. */
    double cdfAt(double x) const;

    /** Smallest and largest sample. Panics when empty. */
    double minValue() const;
    double maxValue() const;

    /**
     * Render the CDF as (value, cumulative fraction) points at the
     * given quantile steps, e.g. {0.1, 0.2, ..., 1.0}.
     */
    std::vector<std::pair<double, double>>
    curve(const std::vector<double> &quantiles) const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    /**
     * Double-checked sort latch: readers acquire-load it and only
     * the first one (under sort_mu_) pays for the sort. add()
     * clears it, which is why add() may not race with reads.
     */
    mutable std::atomic<bool> sorted_{false};
    mutable std::mutex sort_mu_;
};

/**
 * Histogram over logarithmic (power-of-two) size buckets, handy for
 * byte-size spreads spanning 2 B .. 1 MB.
 */
class Log2Histogram
{
  public:
    /**
     * Bucket key for samples below 1.0 (including negatives), kept
     * distinct from the [1, 2) bucket whose key is 1. NaN samples
     * are dropped entirely.
     */
    static constexpr uint64_t kUnderflowBucket = 0;

    /**
     * Add a sample. Values in [2^k, 2^(k+1)) land in the bucket
     * keyed 2^k; values < 1 land in kUnderflowBucket; NaN is
     * ignored.
     */
    void add(double x);

    /** Merge another histogram into this one. */
    void merge(const Log2Histogram &other);

    /** Total samples (NaN drops excluded). */
    uint64_t count() const { return total_; }

    /** Map from bucket lower bound (2^k, or 0) to sample count. */
    const std::map<uint64_t, uint64_t> &buckets() const { return bins_; }

  private:
    std::map<uint64_t, uint64_t> bins_;
    uint64_t total_ = 0;
};

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_STATS_H
