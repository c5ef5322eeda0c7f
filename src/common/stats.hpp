#pragma once

#include <cstddef>
#include <vector>

/// \file stats.hpp
/// Streaming and batch statistics used by the experiment harnesses
/// (average fidelity, served-request percentages, percentiles for reports).

namespace qntn {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch percentile via linear interpolation between closest ranks.
/// q in [0, 1]. Precondition: values non-empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// percentile(values, q) for every q of `qs`, in order, from one sort.
[[nodiscard]] std::vector<double> percentiles(std::vector<double> values,
                                              const std::vector<double>& qs);

}  // namespace qntn
