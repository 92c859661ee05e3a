// Flat-array convolution and moment kernels over SoA distribution planes
// (dist/planes.h) — the vectorizable inner loops behind ConvolveSum /
// ConvolveSum2 and the Theorem-3.8 claim evaluator (claims/ev_fast).
//
// Determinism contract
// --------------------
// Every kernel's result is a specified function of its input, the same on
// every standard library and every SIMD width:
//   * element-wise fills (cross-product expansion, shifts) are
//     order-independent and free to vectorize;
//   * floating-point REDUCTIONS accumulate sequentially in a fixed,
//     width-independent order (first atom to last) — the compiler may
//     vectorize the per-element work but must not reassociate the
//     accumulation (we never build with -ffast-math), so results are
//     identical across scalar, SSE, AVX2 and AVX-512 builds;
//   * canonicalization has a specified order: each convolution step
//     expands term-major (run k = the accumulated sum shifted by the
//     term's atom k, so `a + coeff * x[k]`, `p * x_p[k]`), and the result
//     equals std::stable_sort of that expansion by value (1-D) or by
//     (a, b) (2-D), with exact-equal keys' probabilities summed first to
//     last in that order.  A shift-only step (point-mass term) merges any
//     keys that rounding made equal, so the planes are canonical after
//     every step.  The kernels reach that order without sorting: a + shift
//     is monotone under rounding, so each run is already sorted, and a
//     balanced cascade of stable two-way merges (ties toward the lower k)
//     canonicalizes the n runs in ceil(log2 n) passes.  A 2-D run loses
//     (a, b) order only where rounding collapses two distinct a values;
//     an O(run) check finds that and stable-sorts just that run.
//   The order depends on neither the standard library nor its sort
//   algorithm.
// tests/kernels_test.cc pins the convolution kernels against that
// stable-sort reference, and the reductions against naive per-atom loops,
// on randomized, tie-heavy and rounding-collapse supports.
//
// Adding a kernel: take restrict-qualified const double* planes plus an
// explicit count, accumulate in a fixed order, bump the caller's
// KernelCounters (calls + atoms touched), and add an equivalence case to
// tests/kernels_test.cc before wiring any call site onto it.

#ifndef FACTCHECK_DIST_KERNELS_H_
#define FACTCHECK_DIST_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__GNUC__) || defined(__clang__)
#define FC_RESTRICT __restrict__
#else
#define FC_RESTRICT
#endif

namespace factcheck {

// Deterministic work counters: pure functions of the input instance (never
// of timing or machine width), so bench cells built from them can be
// diffed by tools/compare_bench.py.  Owned by the caller (typically one
// per evaluator); kernels taking a nullable pointer skip counting on null.
struct KernelCounters {
  std::int64_t calls = 0;  // kernel invocations
  std::int64_t atoms = 0;  // atoms read or written across invocations

  KernelCounters& operator-=(const KernelCounters& other) {
    calls -= other.calls;
    atoms -= other.atoms;
    return *this;
  }
};

// One term c * X of a weighted sum, as flat atom planes (value/prob rows
// of length n, e.g. DistPlanes::values/probs or
// DiscreteDistribution::values().data()).
struct FlatTerm {
  const double* values = nullptr;
  const double* probs = nullptr;
  int n = 0;
  double coeff = 1.0;
};

// One term (coeff_a * X, coeff_b * X) of a joint 2-D sum.
struct FlatTerm2 {
  const double* values = nullptr;
  const double* probs = nullptr;
  int n = 0;
  double coeff_a = 0.0;
  double coeff_b = 0.0;
};

// Reusable scratch + result storage for ConvolveSumFlat.  The result
// planes stay valid until the next convolution on the same workspace;
// callers needing two live results (e.g. a cleaned and an uncleaned sum)
// use two workspaces.
class ConvolutionWorkspace {
 public:
  int size() const { return count_; }
  const double* values() const { return value_.data(); }
  const double* probs() const { return prob_.data(); }

 private:
  friend int ConvolveSumFlat(const FlatTerm* terms, int num_terms,
                             ConvolutionWorkspace& ws,
                             KernelCounters* counters);
  std::vector<double> value_, prob_;            // current accumulated sum
  std::vector<double> next_value_, next_prob_;  // expansion / merge
  int count_ = 0;
};

class ConvolutionWorkspace2 {
 public:
  int size() const { return count_; }
  const double* a() const { return a_.data(); }
  const double* b() const { return b_.data(); }
  const double* probs() const { return prob_.data(); }

 private:
  friend int ConvolveSum2Flat(const FlatTerm2* terms, int num_terms,
                              ConvolutionWorkspace2& ws,
                              KernelCounters* counters);
  std::vector<double> a_, b_, prob_;                 // accumulated sum
  std::vector<double> next_a_, next_b_, next_prob_;  // expansion / merge
  int count_ = 0;
};

// Exact distribution of sum_i coeff_i X_i over independent flat terms —
// the SoA core of ConvolveSum.  Result: `return`ed atom count with planes
// in ws.values()/ws.probs(), sorted ascending with exact-equal values
// merged in the specified order above; the empty sum is a point mass at
// 0.  Aborts (FC_CHECK) if an expansion would exceed kMaxConvolutionAtoms.
int ConvolveSumFlat(const FlatTerm* terms, int num_terms,
                    ConvolutionWorkspace& ws, KernelCounters* counters);

// Joint distribution of (sum_i a_i X_i, sum_i b_i X_i) — the SoA core of
// ConvolveSum2; lexicographically sorted by (a, b) with equal pairs
// merged in the specified order above.
int ConvolveSum2Flat(const FlatTerm2* terms, int num_terms,
                     ConvolutionWorkspace2& ws, KernelCounters* counters);

// Growth cap for exact convolutions: supports multiply, so a runaway
// term list would exhaust memory long before finishing.  2^24 atoms
// (~256 MB of workspace) is far beyond any Theorem-3.8 term width.
inline constexpr std::size_t kMaxConvolutionAtoms = std::size_t{1} << 24;

// --- Reductions over flat planes (fixed sequential accumulation) ----------

// sum_k p[k] * v[k]  — the mean of a distribution plane.
double WeightedSum(const double* values, const double* probs, int n);
// sum_k p[k] * v[k]^2  — the raw second moment.
double WeightedSquareSum(const double* values, const double* probs, int n);
// sum_k p[k] * (v[k] - center)^2  — centered second moment / variance.
double CenteredSquareSum(const double* values, const double* probs, int n,
                         double center);
// -sum_{p[k] > 0} p[k] ln p[k]  — Shannon entropy in nats.
double EntropySum(const double* probs, int n);
// P[V < x] / P[V <= x] over an ASCENDING value plane (early exit like the
// legacy CDF loops).
double MassBelow(const double* values, const double* probs, int n, double x);
double MassAtOrBelow(const double* values, const double* probs, int n,
                     double x);

// --- Transform-weighted accumulations (header-only so the per-measure ----
// --- transform functor inlines into the loop) ------------------------------

// The EVarTerm inner loop: m1 = sum_k p[k] g(shift + v[k]),
// m2 = sum_k p[k] g^2, both accumulated per-atom in index order exactly
// like the legacy interleaved loop.
template <typename Fn>
inline void TransformedMoments(const double* FC_RESTRICT values,
                               const double* FC_RESTRICT probs, int n,
                               double shift, Fn&& g, double* m1_out,
                               double* m2_out) {
  double m1 = 0.0, m2 = 0.0;
  for (int k = 0; k < n; ++k) {
    double gv = g(shift + values[k]);
    m1 += probs[k] * gv;
    m2 += probs[k] * gv * gv;
  }
  *m1_out = m1;
  *m2_out = m2;
}

// sum_k p[k] * g(shift + v[k])  — the ECovTerm h-loops.
template <typename Fn>
inline double TransformedSum(const double* FC_RESTRICT values,
                             const double* FC_RESTRICT probs, int n,
                             double shift, Fn&& g) {
  double acc = 0.0;
  for (int k = 0; k < n; ++k) {
    acc += probs[k] * g(shift + values[k]);
  }
  return acc;
}

// The MeanTerm cleaned x uncleaned cross product:
// sum_c sum_s cp[c] * sp[s] * g(base + cv[c] + sv[s]), with the exact
// per-pair product-and-add of the legacy loop (no hoisting of cp[c], so
// the accumulation is bit-identical).
template <typename Fn>
inline double CrossTransformedSum(const double* FC_RESTRICT cv,
                                  const double* FC_RESTRICT cp, int nc,
                                  const double* FC_RESTRICT sv,
                                  const double* FC_RESTRICT sp, int ns,
                                  double base, Fn&& g) {
  double acc = 0.0;
  for (int c = 0; c < nc; ++c) {
    const double shift = base + cv[c];
    for (int s = 0; s < ns; ++s) {
      acc += cp[c] * sp[s] * g(shift + sv[s]);
    }
  }
  return acc;
}

}  // namespace factcheck

#endif  // FACTCHECK_DIST_KERNELS_H_
