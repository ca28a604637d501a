#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace snip {
namespace util {

void
Summary::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
Summary::merge(const Summary &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    uint64_t n = count_ + other.count_;
    double delta = other.mean_ - mean_;
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    double nn = static_cast<double>(n);
    m2_ += other.m2_ + delta * delta * na * nb / nn;
    mean_ = (na * mean_ + nb * other.mean_) / nn;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ = n;
}

double
Summary::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
Summary::min() const
{
    return count_ ? min_ : 0.0;
}

double
Summary::max() const
{
    return count_ ? max_ : 0.0;
}

double
Summary::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

EmpiricalCdf::EmpiricalCdf(const EmpiricalCdf &other)
    : samples_(other.samples_),
      sorted_(other.sorted_.load(std::memory_order_acquire))
{
}

EmpiricalCdf &
EmpiricalCdf::operator=(const EmpiricalCdf &other)
{
    if (this != &other) {
        samples_ = other.samples_;
        sorted_.store(other.sorted_.load(std::memory_order_acquire),
                      std::memory_order_release);
    }
    return *this;
}

void
EmpiricalCdf::add(double x)
{
    samples_.push_back(x);
    sorted_.store(false, std::memory_order_release);
}

void
EmpiricalCdf::ensureSorted() const
{
    // Double-checked: concurrent readers of a shared const CDF all
    // funnel through here, and exactly one sorts under the lock.
    if (sorted_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(sort_mu_);
    if (sorted_.load(std::memory_order_relaxed))
        return;
    std::sort(samples_.begin(), samples_.end());
    sorted_.store(true, std::memory_order_release);
}

double
EmpiricalCdf::quantile(double q) const
{
    if (samples_.empty())
        panic("EmpiricalCdf::quantile on empty distribution");
    ensureSorted();
    q = std::clamp(q, 0.0, 1.0);
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples_.size())));
    if (rank == 0)
        rank = 1;
    return samples_[rank - 1];
}

double
EmpiricalCdf::cdfAt(double x) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

double
EmpiricalCdf::minValue() const
{
    if (samples_.empty())
        panic("EmpiricalCdf::minValue on empty distribution");
    ensureSorted();
    return samples_.front();
}

double
EmpiricalCdf::maxValue() const
{
    if (samples_.empty())
        panic("EmpiricalCdf::maxValue on empty distribution");
    ensureSorted();
    return samples_.back();
}

std::vector<std::pair<double, double>>
EmpiricalCdf::curve(const std::vector<double> &quantiles) const
{
    std::vector<std::pair<double, double>> pts;
    pts.reserve(quantiles.size());
    for (double q : quantiles)
        pts.emplace_back(quantile(q), q);
    return pts;
}

void
Log2Histogram::add(double x)
{
    if (std::isnan(x))
        return;
    uint64_t bucket = kUnderflowBucket;
    if (x >= 1.0) {
        int e = static_cast<int>(std::floor(std::log2(x)));
        e = std::min(e, 62);
        bucket = 1ULL << e;
    }
    ++bins_[bucket];
    ++total_;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    for (const auto &[bucket, n] : other.bins_)
        bins_[bucket] += n;
    total_ += other.total_;
}

}  // namespace util
}  // namespace snip
