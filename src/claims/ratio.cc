#include "claims/ratio.h"

#include <algorithm>
#include <cmath>

#include "dist/convolution.h"
#include "util/check.h"

namespace factcheck {
namespace {

constexpr double kDenominatorFloor = 1e-9;

double Ratio(double earlier_sum, double later_sum) {
  double denom = std::abs(earlier_sum) < kDenominatorFloor
                     ? kDenominatorFloor
                     : earlier_sum;
  return (later_sum - earlier_sum) / denom;
}

}  // namespace

double RatioClaim::Evaluate(const std::vector<double>& x) const {
  double e = 0.0, l = 0.0;
  for (int i : earlier) e += x[i];
  for (int i : later) l += x[i];
  return Ratio(e, l);
}

std::vector<int> RatioClaim::References() const {
  std::vector<int> refs = earlier;
  refs.insert(refs.end(), later.begin(), later.end());
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  return refs;
}

RatioClaim MakeRatioComparisonClaim(int earlier_start, int later_start,
                                    int width) {
  FC_CHECK_GE(earlier_start, 0);
  FC_CHECK_GE(later_start, 0);
  FC_CHECK_GT(width, 0);
  RatioClaim claim;
  for (int i = 0; i < width; ++i) {
    claim.earlier.push_back(earlier_start + i);
    claim.later.push_back(later_start + i);
  }
  claim.description = "pct_change[" + std::to_string(earlier_start) + ".." +
                      std::to_string(earlier_start + width - 1) + " -> " +
                      std::to_string(later_start) + ".." +
                      std::to_string(later_start + width - 1) + "]";
  return claim;
}

RatioPerturbationSet NonOverlappingRatioPerturbations(int n, int width,
                                                      int original_start,
                                                      double lambda) {
  FC_CHECK_GT(width, 0);
  FC_CHECK_GE(original_start, 0);
  FC_CHECK_LE(original_start + 2 * width, n);
  RatioPerturbationSet set;
  set.original = MakeRatioComparisonClaim(original_start,
                                          original_start + width, width);
  std::vector<double> distances;
  int stride = 2 * width;
  for (int step = 1;; ++step) {
    int before = original_start - step * stride;
    int after = original_start + step * stride;
    bool any = false;
    if (before >= 0) {
      set.perturbations.push_back(
          MakeRatioComparisonClaim(before, before + width, width));
      distances.push_back(step);
      any = true;
    }
    if (after + stride <= n) {
      set.perturbations.push_back(
          MakeRatioComparisonClaim(after, after + width, width));
      distances.push_back(step);
      any = true;
    }
    if (!any) break;
  }
  FC_CHECK(!set.perturbations.empty());
  set.sensibilities = ExponentialSensibilities(distances, lambda);
  return set;
}

LambdaQueryFunction RatioQualityFunction(const RatioPerturbationSet& context,
                                         QualityMeasure measure,
                                         double reference,
                                         StrengthDirection direction) {
  std::vector<int> refs;
  for (const RatioClaim& q : context.perturbations) {
    std::vector<int> r = q.References();
    refs.insert(refs.end(), r.begin(), r.end());
  }
  // Copy the context by value so the lambda owns what it needs.
  RatioPerturbationSet ctx = context;
  return LambdaQueryFunction(
      std::move(refs), [ctx, measure, reference, direction](
                           const std::vector<double>& x) {
        double acc = 0.0;
        for (int k = 0; k < ctx.size(); ++k) {
          acc += QualityTransform(measure, ctx.perturbations[k].Evaluate(x),
                                  reference, ctx.sensibilities[k],
                                  direction);
        }
        return acc;
      });
}

RatioEvEvaluator::RatioEvEvaluator(const CleaningProblem* problem,
                                   const RatioPerturbationSet* context,
                                   QualityMeasure measure, double reference,
                                   StrengthDirection direction)
    : problem_(problem),
      context_(context),
      measure_(measure),
      reference_(reference),
      direction_(direction) {
  FC_CHECK(problem_ != nullptr);
  FC_CHECK(context_ != nullptr);
  seen_epoch_ = problem_->epoch();
  object_claims_.assign(problem_->size(), {});
  for (int k = 0; k < context_->size(); ++k) {
    claim_refs_.push_back(context_->perturbations[k].References());
    for (int i : claim_refs_.back()) {
      FC_CHECK_LT(i, problem_->size());
      // Exactness requires pairwise-disjoint perturbations: every object
      // may belong to at most one claim.
      FC_CHECK(object_claims_[i].empty());
      object_claims_[i].push_back(k);
    }
  }
  evar_cache_.resize(context_->size());
}

double RatioEvEvaluator::Transform(int k, double q) const {
  return QualityTransform(measure_, q, reference_,
                          context_->sensibilities[k], direction_);
}

void RatioEvEvaluator::RefreshIfStale() const {
  const std::uint64_t now = problem_->epoch();
  if (now == seen_epoch_) return;
  CleaningProblem::ProblemChanges changes;
  const bool covered = problem_->ChangesSince(seen_epoch_, &changes);
  seen_epoch_ = now;
  if (!covered || changes.structure_changed) {
    const int n = problem_->size();
    for (int i = n; i < static_cast<int>(object_claims_.size()); ++i) {
      // Removal is only legal while no claim references the object.
      FC_CHECK(object_claims_[i].empty());
    }
    object_claims_.resize(n);
    for (auto& cache : evar_cache_) cache.clear();
    return;
  }
  // Disjoint references: a distribution change to object i moves exactly
  // the one claim referencing i (if any).  Value/cost-only changes move
  // nothing — the terms integrate only over the distributions.
  for (int i : changes.dist_changed) {
    for (int k : object_claims_[i]) evar_cache_[k].clear();
  }
}

namespace {

// Joint (earlier-sum, later-sum) contributions of the claim's objects with
// the requested cleaned-flag.
SumDistribution2 JointWindowDist(const CleaningProblem& problem,
                                 const RatioClaim& claim,
                                 const std::vector<bool>& is_cleaned,
                                 bool want_cleaned) {
  std::vector<WeightedTerm2> terms;
  for (int i : claim.earlier) {
    if (is_cleaned[i] == want_cleaned) {
      terms.push_back({&problem.object(i).dist, 1.0, 0.0});
    }
  }
  for (int i : claim.later) {
    if (is_cleaned[i] == want_cleaned) {
      terms.push_back({&problem.object(i).dist, 0.0, 1.0});
    }
  }
  return ConvolveSum2(terms);
}

}  // namespace

double RatioEvEvaluator::EVarTerm(int k,
                                  const std::vector<bool>& is_cleaned) const {
  const std::vector<int>& refs = claim_refs_[k];
  if (refs.size() <= 30) {
    uint32_t mask = 0;
    for (size_t j = 0; j < refs.size(); ++j) {
      if (is_cleaned[refs[j]]) mask |= uint32_t{1} << j;
    }
    auto& cache = evar_cache_[k];
    auto it = cache.find(mask);
    if (it != cache.end()) return it->second;
    double value = EVarTermUncached(k, is_cleaned);
    cache.emplace(mask, value);
    return value;
  }
  return EVarTermUncached(k, is_cleaned);
}

double RatioEvEvaluator::EVarTermUncached(
    int k, const std::vector<bool>& is_cleaned) const {
  const RatioClaim& claim = context_->perturbations[k];
  SumDistribution2 uncleaned =
      JointWindowDist(*problem_, claim, is_cleaned, false);
  if (uncleaned.size() <= 1) return 0.0;
  SumDistribution2 cleaned =
      JointWindowDist(*problem_, claim, is_cleaned, true);
  double ev = 0.0;
  for (const SumAtom2& c : cleaned) {
    double m1 = 0.0, m2 = 0.0;
    for (const SumAtom2& u : uncleaned) {
      double g = Transform(k, Ratio(c.a + u.a, c.b + u.b));
      m1 += u.prob * g;
      m2 += u.prob * g * g;
    }
    double var = m2 - m1 * m1;
    if (var > 0.0) ev += c.prob * var;
  }
  return ev;
}

double RatioEvEvaluator::MeanTerm(int k,
                                  const std::vector<bool>& is_cleaned) const {
  const RatioClaim& claim = context_->perturbations[k];
  SumDistribution2 uncleaned =
      JointWindowDist(*problem_, claim, is_cleaned, false);
  SumDistribution2 cleaned =
      JointWindowDist(*problem_, claim, is_cleaned, true);
  double mean = 0.0;
  for (const SumAtom2& c : cleaned) {
    for (const SumAtom2& u : uncleaned) {
      mean += c.prob * u.prob * Transform(k, Ratio(c.a + u.a, c.b + u.b));
    }
  }
  return mean;
}

double RatioEvEvaluator::EV(const std::vector<int>& cleaned) const {
  RefreshIfStale();
  std::vector<bool> is_cleaned(problem_->size(), false);
  for (int i : cleaned) {
    FC_CHECK_GE(i, 0);
    FC_CHECK_LT(i, problem_->size());
    is_cleaned[i] = true;
  }
  double ev = 0.0;
  for (int k = 0; k < context_->size(); ++k) ev += EVarTerm(k, is_cleaned);
  return ev;
}

QualityMoments RatioEvEvaluator::Moments() const {
  RefreshIfStale();
  std::vector<bool> is_cleaned(problem_->size(), false);
  QualityMoments moments;
  for (int k = 0; k < context_->size(); ++k) {
    moments.mean += MeanTerm(k, is_cleaned);
    moments.variance += EVarTerm(k, is_cleaned);
  }
  return moments;
}

// The engine-pluggable face of the ratio evaluator: the committed set
// lives here (flags + cached per-claim term values), a probe touches only
// the single claim referencing the probed object (disjointness), and
// Value() re-sums the cached terms in EV's claim order so it is bit-equal
// to the batch EV of the same set.
class RatioIncrementalObjective final : public IncrementalObjective {
 public:
  explicit RatioIncrementalObjective(const RatioEvEvaluator* evaluator)
      : ev_(evaluator),
        is_cleaned_(ev_->problem_->size(), false),
        evar_terms_(ev_->context_->size(), 0.0) {}

  void Reset(const std::vector<int>& cleaned) override {
    // A run always starts with Reset, so syncing here covers every probe
    // and commit of the run.
    ev_->RefreshIfStale();
    ready_ = true;
    is_cleaned_.resize(ev_->problem_->size());
    std::fill(is_cleaned_.begin(), is_cleaned_.end(), false);
    for (int i : cleaned) {
      FC_CHECK_GE(i, 0);
      FC_CHECK_LT(i, ev_->problem_->size());
      is_cleaned_[i] = true;
    }
    for (int k = 0; k < ev_->context_->size(); ++k) {
      evar_terms_[k] = ev_->EVarTerm(k, is_cleaned_);
    }
    RecomputeValue();
  }

  double Value() const override {
    FC_CHECK(ready_);
    return value_;
  }

  double ProbeGain(int i) override {
    FC_CHECK(ready_);
    FC_CHECK(!is_cleaned_[i]);
    double before = 0.0, after = 0.0;
    is_cleaned_[i] = true;
    for (int k : ev_->object_claims_[i]) {
      before += evar_terms_[k];
      after += ev_->EVarTerm(k, is_cleaned_);
    }
    is_cleaned_[i] = false;
    return after - before;
  }

  void Commit(int i) override {
    FC_CHECK(ready_);
    FC_CHECK(!is_cleaned_[i]);
    is_cleaned_[i] = true;
    for (int k : ev_->object_claims_[i]) {
      evar_terms_[k] = ev_->EVarTerm(k, is_cleaned_);
    }
    RecomputeValue();
  }

 private:
  void RecomputeValue() {
    double ev = 0.0;
    for (double t : evar_terms_) ev += t;
    value_ = ev;
  }

  const RatioEvEvaluator* ev_;
  std::vector<bool> is_cleaned_;
  std::vector<double> evar_terms_;
  double value_ = 0.0;
  bool ready_ = false;  // Reset() must run before the first use
};

std::unique_ptr<IncrementalObjective> RatioEvEvaluator::MakeIncremental()
    const {
  return std::make_unique<RatioIncrementalObjective>(this);
}

}  // namespace factcheck
