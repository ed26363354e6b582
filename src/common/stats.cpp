#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace agg {

void RunningStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

DegreeHistogram::DegreeHistogram(std::uint32_t dense_limit)
    : dense_limit_(dense_limit), dense_(dense_limit, 0), tail_(64, 0) {
  AGG_CHECK(dense_limit >= 1);
}

void DegreeHistogram::add(std::uint64_t value) {
  ++total_;
  if (value < dense_limit_) {
    ++dense_[value];
  } else {
    ++tail_[std::bit_width(value) - 1];
  }
}

std::uint64_t DegreeHistogram::count_exact(std::uint32_t value) const {
  return value < dense_limit_ ? dense_[value] : 0;
}

double DegreeHistogram::cdf_at(std::uint32_t value) const {
  if (total_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (std::uint32_t v = 0; v < dense_limit_ && v <= value; ++v) acc += dense_[v];
  if (value >= dense_limit_) {
    for (std::size_t k = 0; k < tail_.size(); ++k) {
      // Bin k is [2^k, 2^(k+1)); the top bin ends at the type's maximum
      // (shifting by 64 would be undefined).
      const std::uint64_t hi = k + 1 < 64 ? (1ull << (k + 1)) - 1 : ~0ull;
      if (hi <= value) acc += tail_[k];  // whole bin below (approximate tail CDF)
    }
  }
  return static_cast<double>(acc) / static_cast<double>(total_);
}

std::vector<DegreeHistogram::Bin> DegreeHistogram::bins() const {
  std::vector<Bin> out;
  for (std::uint32_t v = 0; v < dense_limit_; ++v) {
    if (dense_[v] > 0) out.push_back({v, v, dense_[v]});
  }
  for (std::size_t k = 0; k < tail_.size(); ++k) {
    if (tail_[k] > 0) {
      const std::uint64_t lo = std::max<std::uint64_t>(1ull << k, dense_limit_);
      out.push_back({lo, (1ull << (k + 1)) - 1, tail_[k]});
    }
  }
  std::sort(out.begin(), out.end(), [](const Bin& a, const Bin& b) { return a.lo < b.lo; });
  return out;
}

std::string DegreeHistogram::render(std::size_t bar_width) const {
  std::ostringstream os;
  const auto all = bins();
  std::uint64_t peak = 1;
  for (const auto& b : all) peak = std::max(peak, b.count);
  for (const auto& b : all) {
    const double frac = total_ ? 100.0 * static_cast<double>(b.count) / static_cast<double>(total_) : 0.0;
    const auto len = static_cast<std::size_t>(
        std::llround(static_cast<double>(b.count) / static_cast<double>(peak) *
                     static_cast<double>(bar_width)));
    char label[64];
    if (b.lo == b.hi) {
      std::snprintf(label, sizeof label, "%8llu        ", static_cast<unsigned long long>(b.lo));
    } else {
      std::snprintf(label, sizeof label, "%8llu-%-7llu", static_cast<unsigned long long>(b.lo),
                    static_cast<unsigned long long>(b.hi));
    }
    os << label << " |" << std::string(len, '#') << std::string(bar_width - len, ' ') << "| "
       << b.count << " (" << std::fixed;
    os.precision(2);
    os << frac << "%)\n";
  }
  return os.str();
}

double percentile(std::vector<double> values, double p) {
  AGG_CHECK(!values.empty());
  AGG_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

}  // namespace agg
