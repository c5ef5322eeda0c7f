#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace qntn {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::vector<double> values, double q) {
  return percentiles(std::move(values), {q}).front();
}

std::vector<double> percentiles(std::vector<double> values,
                                const std::vector<double>& qs) {
  QNTN_REQUIRE(!values.empty(), "percentile of empty set");
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    QNTN_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    out.push_back(values[lo] * (1.0 - frac) + values[hi] * frac);
  }
  return out;
}

}  // namespace qntn
