#include "dist/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "dist/convolution.h"
#include "util/check.h"

namespace factcheck {
namespace {

// Expansion-size guard shared by both convolution kernels: the next
// cross product has `count * n` atoms; fail loudly (with the cap in the
// CHECK message) instead of letting reserve() overflow size_t or exhaust
// memory.
void CheckExpansion(std::size_t count, int n) {
  FC_CHECK_GT(n, 0);
  FC_CHECK(count <= kMaxConvolutionAtoms / static_cast<std::size_t>(n) &&
           "convolution support would exceed kMaxConvolutionAtoms (2^24); "
           "reduce term supports or widths");
}

// One SoA atom array: kWidth key planes (the value, or a then b), then
// the probability plane.
template <int kWidth>
using AtomPlanes = std::array<double*, kWidth + 1>;
template <int kWidth>
using Key = std::array<double, kWidth>;

template <int kWidth>
Key<kWidth> KeyAt(const AtomPlanes<kWidth>& s, std::size_t x) {
  Key<kWidth> key;
  for (int c = 0; c < kWidth; ++c) key[c] = s[c][x];
  return key;
}

// Lexicographic x < y, branch-free so a merge step never mispredicts on
// random keys.
template <int kWidth>
bool KeyLess(const Key<kWidth>& x, const Key<kWidth>& y) {
  bool less = false;
  for (int c = kWidth - 1; c >= 0; --c) {
    less = (x[c] < y[c]) | ((x[c] == y[c]) & less);
  }
  return less;
}

template <int kWidth>
bool KeyEqual(const Key<kWidth>& x, const Key<kWidth>& y) {
  bool equal = true;
  for (int c = 0; c < kWidth; ++c) equal &= x[c] == y[c];
  return equal;
}

// Stable merge of the sorted ranges [lo, mid) and [mid, hi) of `src` into
// `dst` from index `out` (mid == hi copies): key ties take the left range
// first.  With kCombine, an atom whose key equals the last one written
// adds its probability to it instead.  Returns the end of the output.
template <int kWidth, bool kCombine>
std::size_t MergeAdjacent(const AtomPlanes<kWidth>& src,
                          const AtomPlanes<kWidth>& dst, std::size_t lo,
                          std::size_t mid, std::size_t hi, std::size_t out) {
  auto emit = [&](std::size_t x, const Key<kWidth>& key) {
    if (kCombine && out > 0 &&
        KeyEqual<kWidth>(KeyAt<kWidth>(dst, out - 1), key)) {
      dst[kWidth][out - 1] += src[kWidth][x];
      return;
    }
    for (int c = 0; c < kWidth; ++c) dst[c][out] = key[c];
    dst[kWidth][out] = src[kWidth][x];
    ++out;
  };
  std::size_t i = lo, j = mid;
  // Branch-free main loop.  Both heads stay in registers and both
  // successors load before the compare resolves, so a step's critical
  // path is compare -> select, not index -> load -> compare.  It stops one
  // atom short of the right range's end to keep the loads in bounds (the
  // left successor of the last left atom is the right range's first).
  if (i < mid && j + 1 < hi) {
    Key<kWidth> head_i = KeyAt<kWidth>(src, i);
    Key<kWidth> head_j = KeyAt<kWidth>(src, j);
    do {
      const Key<kWidth> next_i = KeyAt<kWidth>(src, i + 1);
      const Key<kWidth> next_j = KeyAt<kWidth>(src, j + 1);
      const bool right = KeyLess<kWidth>(head_j, head_i);
      Key<kWidth> key;
      for (int c = 0; c < kWidth; ++c) {
        key[c] = right ? head_j[c] : head_i[c];
        head_i[c] = right ? head_i[c] : next_i[c];
        head_j[c] = right ? next_j[c] : head_j[c];
      }
      emit(right ? j : i, key);
      i += !right;
      j += right;
    } while (i < mid && j + 1 < hi);
  }
  while (i < mid && j < hi) {
    const Key<kWidth> key_i = KeyAt<kWidth>(src, i);
    const Key<kWidth> key_j = KeyAt<kWidth>(src, j);
    const bool right = KeyLess<kWidth>(key_j, key_i);
    emit(right ? j : i, right ? key_j : key_i);
    i += !right;
    j += right;
  }
  for (; i < mid; ++i) emit(i, KeyAt<kWidth>(src, i));
  for (; j < hi; ++j) emit(j, KeyAt<kWidth>(src, j));
  return out;
}

// Canonicalizes `n` contiguous sorted runs of `len` atoms (run r holds
// atoms [r*len, (r+1)*len) of `runs`) by a balanced cascade of stable
// two-way merges: ceil(log2 n) passes, O(n*len*log n) in the worst case.
// Adjacent runs merge left first on key ties, so the order is exactly
// std::stable_sort's over the concatenated runs, and the last pass merges
// exact-equal keys, summing their probabilities in that order.  Passes
// ping-pong between `runs` and `spare` (n >= 2 makes at least one).
// Returns the canonical atom count and whether it landed in `spare`.
template <int kWidth>
std::pair<std::size_t, bool> MergeRuns(AtomPlanes<kWidth> runs,
                                       AtomPlanes<kWidth> spare, int n,
                                       std::size_t len) {
  const std::size_t total = static_cast<std::size_t>(n) * len;
  bool in_spare = true;
  std::size_t width = len;
  for (; 2 * width < total; width *= 2) {
    for (std::size_t lo = 0; lo < total; lo += 2 * width) {
      MergeAdjacent<kWidth, false>(runs, spare, lo,
                                   std::min(lo + width, total),
                                   std::min(lo + 2 * width, total), lo);
    }
    std::swap(runs, spare);
    in_spare = !in_spare;
  }
  return {MergeAdjacent<kWidth, true>(runs, spare, 0, width, total, 0),
          in_spare};
}

// A shifted 2-D run stays lexicographically sorted unless rounding
// collapsed two distinct `a` values into one; detect that in O(count) and
// restore the order with std::stable_sort, so equal keys keep their run
// order.  1-D runs never need this: a + shift is monotone in a.
void RestoreRunOrder(const AtomPlanes<2>& s, std::size_t lo, std::size_t hi) {
  std::size_t i = lo + 1;
  while (i < hi && !KeyLess<2>(KeyAt<2>(s, i), KeyAt<2>(s, i - 1))) ++i;
  if (i >= hi) return;
  std::vector<SumAtom2> run;
  run.reserve(hi - lo);
  for (std::size_t k = lo; k < hi; ++k) {
    run.push_back({s[0][k], s[1][k], s[2][k]});
  }
  std::stable_sort(run.begin(), run.end(),
                   [](const SumAtom2& x, const SumAtom2& y) {
                     return KeyLess<2>({x.a, x.b}, {y.a, y.b});
                   });
  for (std::size_t k = lo; k < hi; ++k) {
    s[0][k] = run[k - lo].a;
    s[1][k] = run[k - lo].b;
    s[2][k] = run[k - lo].prob;
  }
}

// After a shift-only step the sorted planes can hold exact-equal
// neighbours (rounding collapsed distinct keys): merge them in place,
// first to last.  Writes nothing unless a collision exists.
template <int kWidth>
std::size_t MergeEqualNeighbours(const AtomPlanes<kWidth>& s,
                                 std::size_t count) {
  auto equal = [&](std::size_t x, std::size_t y) {
    return KeyEqual<kWidth>(KeyAt<kWidth>(s, x), KeyAt<kWidth>(s, y));
  };
  std::size_t out = 0;
  while (out + 1 < count && !equal(out, out + 1)) ++out;
  if (out + 1 >= count) return count;
  for (std::size_t i = out + 1; i < count; ++i) {
    if (equal(out, i)) {
      s[kWidth][out] += s[kWidth][i];
    } else {
      ++out;
      for (int c = 0; c <= kWidth; ++c) s[c][out] = s[c][i];
    }
  }
  return out + 1;
}

}  // namespace

int ConvolveSumFlat(const FlatTerm* terms, int num_terms,
                    ConvolutionWorkspace& ws, KernelCounters* counters) {
  // The empty sum is a point mass at 0 (legacy acc = {{0, 1}}).
  ws.value_.assign(1, 0.0);
  ws.prob_.assign(1, 1.0);
  ws.count_ = 1;
  std::int64_t atoms = 1;
  for (int t = 0; t < num_terms; ++t) {
    const FlatTerm& term = terms[t];
    FC_CHECK(term.values != nullptr);
    FC_CHECK(term.probs != nullptr);
    FC_CHECK_GT(term.n, 0);
    const std::size_t count = static_cast<std::size_t>(ws.count_);
    if (term.n == 1) {
      // Point masses (and zero coefficients) only shift; no growth.
      const double shift = term.coeff * term.values[0];
      double* FC_RESTRICT v = ws.value_.data();
      for (std::size_t i = 0; i < count; ++i) v[i] += shift;
      atoms += ws.count_;
      ws.count_ = static_cast<int>(
          MergeEqualNeighbours<1>({v, ws.prob_.data()}, count));
      continue;
    }
    if (term.coeff == 0.0) continue;
    CheckExpansion(count, term.n);
    const int n = term.n;
    const std::size_t total = count * static_cast<std::size_t>(n);
    ws.next_value_.resize(total);
    ws.next_prob_.resize(total);
    // Term-major expansion: run k is the accumulated (sorted) sum shifted
    // by the term's atom k, an element-wise fill over the contiguous
    // accumulated planes.
    {
      const double coeff = term.coeff;
      const double* FC_RESTRICT av = ws.value_.data();
      const double* FC_RESTRICT ap = ws.prob_.data();
      for (int k = 0; k < n; ++k) {
        const double xv = term.values[k];
        const double xp = term.probs[k];
        double* FC_RESTRICT run_v = ws.next_value_.data() + k * count;
        double* FC_RESTRICT run_p = ws.next_prob_.data() + k * count;
        for (std::size_t i = 0; i < count; ++i) {
          run_v[i] = av[i] + coeff * xv;
          run_p[i] = ap[i] * xp;
        }
      }
    }
    atoms += static_cast<std::int64_t>(total);
    // Canonicalize: stable merge of the n sorted runs, summing the
    // probabilities of exact-equal values in merged order.
    ws.value_.resize(total);
    ws.prob_.resize(total);
    const auto [out, in_spare] =
        MergeRuns<1>({ws.next_value_.data(), ws.next_prob_.data()},
                     {ws.value_.data(), ws.prob_.data()}, n, count);
    if (!in_spare) {
      ws.value_.swap(ws.next_value_);
      ws.prob_.swap(ws.next_prob_);
    }
    ws.count_ = static_cast<int>(out);
  }
  // Every step leaves the planes canonical, so no exit pass is needed.
  if (counters != nullptr) {
    ++counters->calls;
    counters->atoms += atoms;
  }
  return ws.count_;
}

int ConvolveSum2Flat(const FlatTerm2* terms, int num_terms,
                     ConvolutionWorkspace2& ws, KernelCounters* counters) {
  ws.a_.assign(1, 0.0);
  ws.b_.assign(1, 0.0);
  ws.prob_.assign(1, 1.0);
  ws.count_ = 1;
  std::int64_t atoms = 1;
  for (int t = 0; t < num_terms; ++t) {
    const FlatTerm2& term = terms[t];
    FC_CHECK(term.values != nullptr);
    FC_CHECK(term.probs != nullptr);
    FC_CHECK_GT(term.n, 0);
    const std::size_t count = static_cast<std::size_t>(ws.count_);
    if (term.n == 1) {
      const double da = term.coeff_a * term.values[0];
      const double db = term.coeff_b * term.values[0];
      double* FC_RESTRICT a = ws.a_.data();
      double* FC_RESTRICT b = ws.b_.data();
      for (std::size_t i = 0; i < count; ++i) {
        a[i] += da;
        b[i] += db;
      }
      atoms += ws.count_;
      const AtomPlanes<2> acc = {a, b, ws.prob_.data()};
      RestoreRunOrder(acc, 0, count);
      ws.count_ = static_cast<int>(MergeEqualNeighbours<2>(acc, count));
      continue;
    }
    if (term.coeff_a == 0.0 && term.coeff_b == 0.0) continue;
    CheckExpansion(count, term.n);
    const int n = term.n;
    const std::size_t total = count * static_cast<std::size_t>(n);
    ws.next_a_.resize(total);
    ws.next_b_.resize(total);
    ws.next_prob_.resize(total);
    const AtomPlanes<2> runs = {ws.next_a_.data(), ws.next_b_.data(),
                                ws.next_prob_.data()};
    {
      const double ca = term.coeff_a;
      const double cb = term.coeff_b;
      const double* FC_RESTRICT aa = ws.a_.data();
      const double* FC_RESTRICT ab = ws.b_.data();
      const double* FC_RESTRICT ap = ws.prob_.data();
      for (int k = 0; k < n; ++k) {
        const double xv = term.values[k];
        const double xp = term.probs[k];
        double* FC_RESTRICT run_a = runs[0] + k * count;
        double* FC_RESTRICT run_b = runs[1] + k * count;
        double* FC_RESTRICT run_p = runs[2] + k * count;
        for (std::size_t i = 0; i < count; ++i) {
          run_a[i] = aa[i] + ca * xv;
          run_b[i] = ab[i] + cb * xv;
          run_p[i] = ap[i] * xp;
        }
      }
    }
    for (int k = 0; k < n; ++k) {
      RestoreRunOrder(runs, k * count, (k + 1) * count);
    }
    atoms += static_cast<std::int64_t>(total);
    // Canonicalize as in the 1-D kernel, on (a, b) keys.
    ws.a_.resize(total);
    ws.b_.resize(total);
    ws.prob_.resize(total);
    const auto [out, in_spare] = MergeRuns<2>(
        runs, {ws.a_.data(), ws.b_.data(), ws.prob_.data()}, n, count);
    if (!in_spare) {
      ws.a_.swap(ws.next_a_);
      ws.b_.swap(ws.next_b_);
      ws.prob_.swap(ws.next_prob_);
    }
    ws.count_ = static_cast<int>(out);
  }
  if (counters != nullptr) {
    ++counters->calls;
    counters->atoms += atoms;
  }
  return ws.count_;
}

double WeightedSum(const double* FC_RESTRICT values,
                   const double* FC_RESTRICT probs, int n) {
  double acc = 0.0;
  for (int k = 0; k < n; ++k) acc += probs[k] * values[k];
  return acc;
}

double WeightedSquareSum(const double* FC_RESTRICT values,
                         const double* FC_RESTRICT probs, int n) {
  double acc = 0.0;
  for (int k = 0; k < n; ++k) acc += probs[k] * values[k] * values[k];
  return acc;
}

double CenteredSquareSum(const double* FC_RESTRICT values,
                         const double* FC_RESTRICT probs, int n,
                         double center) {
  double acc = 0.0;
  for (int k = 0; k < n; ++k) {
    const double d = values[k] - center;
    acc += probs[k] * d * d;
  }
  return acc;
}

double EntropySum(const double* FC_RESTRICT probs, int n) {
  double acc = 0.0;
  for (int k = 0; k < n; ++k) {
    if (probs[k] > 0.0) acc -= probs[k] * std::log(probs[k]);
  }
  return acc;
}

double MassBelow(const double* FC_RESTRICT values,
                 const double* FC_RESTRICT probs, int n, double x) {
  double acc = 0.0;
  for (int k = 0; k < n && values[k] < x; ++k) acc += probs[k];
  return acc;
}

double MassAtOrBelow(const double* FC_RESTRICT values,
                     const double* FC_RESTRICT probs, int n, double x) {
  double acc = 0.0;
  for (int k = 0; k < n && values[k] <= x; ++k) acc += probs[k];
  return acc;
}

}  // namespace factcheck
