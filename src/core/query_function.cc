#include "core/query_function.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace factcheck {

LinearQueryFunction::LinearQueryFunction(std::vector<int> refs,
                                         std::vector<double> coeffs,
                                         double intercept)
    : intercept_(intercept) {
  FC_CHECK_EQ(refs.size(), coeffs.size());
  std::vector<int> order(refs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return refs[a] < refs[b]; });
  for (int k : order) {
    FC_CHECK_GE(refs[k], 0);
    if (!refs_.empty() && refs_.back() == refs[k]) {
      coeffs_.back() += coeffs[k];  // merge duplicate references
    } else {
      refs_.push_back(refs[k]);
      coeffs_.push_back(coeffs[k]);
    }
  }
}

LinearQueryFunction LinearQueryFunction::FromDense(
    const std::vector<double>& weights, double intercept) {
  std::vector<int> refs;
  std::vector<double> coeffs;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] != 0.0) {
      refs.push_back(static_cast<int>(i));
      coeffs.push_back(weights[i]);
    }
  }
  return LinearQueryFunction(std::move(refs), std::move(coeffs), intercept);
}

double LinearQueryFunction::Evaluate(const std::vector<double>& x) const {
  double acc = intercept_;
  for (size_t k = 0; k < refs_.size(); ++k) {
    FC_CHECK_LT(static_cast<size_t>(refs_[k]), x.size());
    acc += coeffs_[k] * x[refs_[k]];
  }
  return acc;
}

double LinearQueryFunction::Coefficient(int i) const {
  auto it = std::lower_bound(refs_.begin(), refs_.end(), i);
  if (it == refs_.end() || *it != i) return 0.0;
  return coeffs_[it - refs_.begin()];
}

std::vector<double> LinearQueryFunction::DenseWeights(int n) const {
  std::vector<double> w(n, 0.0);
  for (size_t k = 0; k < refs_.size(); ++k) {
    FC_CHECK_LT(refs_[k], n);
    w[refs_[k]] = coeffs_[k];
  }
  return w;
}

LambdaQueryFunction::LambdaQueryFunction(
    std::vector<int> refs,
    std::function<double(const std::vector<double>&)> fn)
    : refs_(std::move(refs)), fn_(std::move(fn)) {
  std::sort(refs_.begin(), refs_.end());
  refs_.erase(std::unique(refs_.begin(), refs_.end()), refs_.end());
  FC_CHECK(fn_ != nullptr);
}

}  // namespace factcheck
