// Order statistics used by the benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
template <class T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return static_cast<double>(values[k]);
}

template <class T>
double median(const std::vector<T>& values) {
  return quantile(values, 0.5);
}

}  // namespace perfbench
