// Claim quality measures (Section 2.2, following Wu et al. [43]):
//
//   bias(q*(u), X) = sum_k s_k * Delta(q_k(X), q*(u))          (fairness)
//   dup(q*(u), X)  = sum_k 1[Delta(q_k(X), q*(u)) >= 0]        (uniqueness)
//   frag(q*(u), X) = sum_k s_k * min(Delta(q_k(X), q*(u)), 0)^2 (robustness)
//
// with Delta(a, b) = a - b (the natural relative-strength function for
// linear claims).  Each measure is exposed as a QueryFunction over X so the
// generic MinVar/MaxPr machinery applies; bias additionally has an exact
// LinearQueryFunction form (it is affine), which unlocks the modular
// knapsack path of Section 3.2.

#ifndef FACTCHECK_CLAIMS_QUALITY_H_
#define FACTCHECK_CLAIMS_QUALITY_H_

#include <algorithm>
#include <memory>

#include "claims/perturbation.h"
#include "core/query_function.h"
#include "util/check.h"

namespace factcheck {

// Mean/variance summary of a quality measure under remaining uncertainty.
struct QualityMoments {
  double mean = 0.0;
  double variance = 0.0;
};

enum class QualityMeasure {
  kBias,       // fairness
  kDuplicity,  // uniqueness
  kFragility,  // robustness
};

// Direction of the relative-strength function Delta (Section 2.2): for
// "went up by" / "as high as" claims a higher perturbation result
// strengthens the claim (Delta = q - ref); for "as low as" claims a lower
// result does (Delta = ref - q).
enum class StrengthDirection {
  kHigherIsStronger,
  kLowerIsStronger,
};

// The per-perturbation contribution g_k(q) for a measure, where q = q_k(X)
// and `reference` = q*(u).
double QualityTransform(QualityMeasure measure, double q, double reference,
                        double sensibility,
                        StrengthDirection direction =
                            StrengthDirection::kHigherIsStronger);

// Compile-time dispatch of QualityTransform: selects the (measure,
// direction) branch once per term and hands `fn` a factory `make_g` that
// builds the per-claim transform closure from its sensibility.  Each
// closure performs exactly QualityTransform's arithmetic in the same
// order, so it returns bit-identical values while staying inlinable inside
// the dist/kernels.h reduction loops.
template <typename Fn>
void DispatchQualityTransform(QualityMeasure measure,
                              StrengthDirection direction, double reference,
                              Fn&& fn) {
  const bool higher = direction == StrengthDirection::kHigherIsStronger;
  switch (measure) {
    case QualityMeasure::kBias:
      if (higher) {
        fn([reference](double s) {
          return [s, reference](double q) { return s * (q - reference); };
        });
      } else {
        fn([reference](double s) {
          return [s, reference](double q) { return s * (reference - q); };
        });
      }
      return;
    case QualityMeasure::kDuplicity:
      if (higher) {
        fn([reference](double s) {
          (void)s;
          return [reference](double q) {
            return q - reference >= 0.0 ? 1.0 : 0.0;
          };
        });
      } else {
        fn([reference](double s) {
          (void)s;
          return [reference](double q) {
            return reference - q >= 0.0 ? 1.0 : 0.0;
          };
        });
      }
      return;
    case QualityMeasure::kFragility:
      if (higher) {
        fn([reference](double s) {
          return [s, reference](double q) {
            double neg = std::min(q - reference, 0.0);
            return s * neg * neg;
          };
        });
      } else {
        fn([reference](double s) {
          return [s, reference](double q) {
            double neg = std::min(reference - q, 0.0);
            return s * neg * neg;
          };
        });
      }
      return;
  }
  FC_CHECK(false);
}

// Query function f(X) for a quality measure of the given claim context.
// `reference` is q*(u), the original claim evaluated on the current values.
class ClaimQualityFunction : public QueryFunction {
 public:
  ClaimQualityFunction(const PerturbationSet* context, QualityMeasure measure,
                       double reference,
                       StrengthDirection direction =
                           StrengthDirection::kHigherIsStronger);

  double Evaluate(const std::vector<double>& x) const override;
  const std::vector<int>& References() const override { return refs_; }

  QualityMeasure measure() const { return measure_; }
  double reference() const { return reference_; }
  StrengthDirection direction() const { return direction_; }
  const PerturbationSet& context() const { return *context_; }

 private:
  const PerturbationSet* context_;  // not owned
  QualityMeasure measure_;
  double reference_;
  StrengthDirection direction_;
  std::vector<int> refs_;
};

// bias(q*(u), X) as an explicit affine function of X:
//   w_i = sum_k s_k a_{k,i},  intercept = sum_k s_k b_k - q*(u)
// (Section 3.4, "the query function is linear given linear claim
// functions").
LinearQueryFunction BiasLinearFunction(const PerturbationSet& context,
                                       double reference);

}  // namespace factcheck

#endif  // FACTCHECK_CLAIMS_QUALITY_H_
