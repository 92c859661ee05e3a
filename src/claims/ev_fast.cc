#include "claims/ev_fast.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <set>

#include "core/engine.h"
#include "dist/planes.h"
#include "util/check.h"

namespace factcheck {
namespace {

// Terms at most this wide memoize into a flat mask-indexed array: 2^12
// doubles = 32 KiB per term, allocated lazily on first touch.  Wider terms
// up to kHashCacheBits fall back to the hash-map cache; wider still are
// recomputed on every call.
constexpr int kFlatCacheBits = 12;
constexpr int kHashCacheBits = 30;

}  // namespace

ClaimEvEvaluator::ClaimEvEvaluator(const CleaningProblem* problem,
                                   const PerturbationSet* context,
                                   QualityMeasure measure, double reference,
                                   StrengthDirection direction)
    : problem_(problem),
      context_(context),
      measure_(measure),
      reference_(reference),
      direction_(direction) {
  FC_CHECK(problem_ != nullptr);
  FC_CHECK(context_ != nullptr);
  planes_ = problem_->planes_ptr();
  seen_epoch_ = problem_->epoch();
  int m = context_->size();
  int n = problem_->size();
  claim_components_.resize(m);
  claim_intercepts_.resize(m);
  object_claims_.assign(n, {});
  object_pairs_.assign(n, {});
  for (int k = 0; k < m; ++k) {
    const LinearQueryFunction& q = context_->perturbations[k].query;
    claim_intercepts_[k] = q.intercept();
    const auto& refs = q.References();
    const auto& coeffs = q.coefficients();
    for (size_t j = 0; j < refs.size(); ++j) {
      FC_CHECK_LT(refs[j], n);
      claim_components_[k].push_back({refs[j], coeffs[j]});
      object_claims_[refs[j]].push_back(k);
    }
  }
  // Overlapping pairs, discovered through shared objects.
  std::set<std::pair<int, int>> seen;
  for (int i = 0; i < n; ++i) {
    const auto& ks = object_claims_[i];
    for (size_t a = 0; a < ks.size(); ++a) {
      for (size_t b = a + 1; b < ks.size(); ++b) {
        int k1 = std::min(ks[a], ks[b]);
        int k2 = std::max(ks[a], ks[b]);
        seen.insert({k1, k2});
      }
    }
  }
  for (const auto& [k1, k2] : seen) {
    Pair pair;
    pair.k1 = k1;
    pair.k2 = k2;
    const LinearQueryFunction& q1 = context_->perturbations[k1].query;
    const LinearQueryFunction& q2 = context_->perturbations[k2].query;
    for (const Component& c : claim_components_[k1]) {
      double c2 = q2.Coefficient(c.object);
      if (c2 != 0.0) {
        pair.shared.push_back({c.object, c.coeff, c2});
      } else {
        pair.exclusive1.push_back(c);
      }
    }
    for (const Component& c : claim_components_[k2]) {
      if (q1.Coefficient(c.object) == 0.0) pair.exclusive2.push_back(c);
    }
    // The union of both claims' refs as 2-D terms (b-coeff 0 for claim-1
    // exclusives and vice versa), used by the cleaned-joint convolution.
    pair.all.reserve(pair.shared.size() + pair.exclusive1.size() +
                     pair.exclusive2.size());
    for (const Component2& c : pair.shared) pair.all.push_back(c);
    for (const Component& c : pair.exclusive1) {
      pair.all.push_back({c.object, c.coeff, 0.0});
    }
    for (const Component& c : pair.exclusive2) {
      pair.all.push_back({c.object, 0.0, c.coeff});
    }
    int pair_idx = static_cast<int>(pairs_.size());
    std::set<int> members;
    for (const auto& c : pair.shared) members.insert(c.object);
    for (const auto& c : pair.exclusive1) members.insert(c.object);
    for (const auto& c : pair.exclusive2) members.insert(c.object);
    for (int obj : members) object_pairs_[obj].push_back(pair_idx);
    pair_members_.emplace_back(members.begin(), members.end());
    pairs_.push_back(std::move(pair));
  }
  evar_cache_.resize(m);
  ecov_cache_.resize(pairs_.size());
  evar_flat_cache_.resize(m);
  ecov_flat_cache_.resize(pairs_.size());
  // EVFast needs every term mask to fit a flat cache; one wide claim or
  // pair falls the whole evaluator back to the generic EV loop.
  bool ok = true;
  for (const auto& comps : claim_components_) {
    if (static_cast<int>(comps.size()) > kFlatCacheBits) ok = false;
  }
  for (const auto& members : pair_members_) {
    if (static_cast<int>(members.size()) > kFlatCacheBits) ok = false;
  }
  fast_ev_ok_ = ok;
  if (ok) {
    term_inc_offset_.assign(n + 1, 0);
    pair_inc_offset_.assign(n + 1, 0);
    for (const auto& comps : claim_components_) {
      for (const Component& c : comps) ++term_inc_offset_[c.object + 1];
    }
    for (const auto& members : pair_members_) {
      for (int obj : members) ++pair_inc_offset_[obj + 1];
    }
    for (int i = 0; i < n; ++i) {
      term_inc_offset_[i + 1] += term_inc_offset_[i];
      pair_inc_offset_[i + 1] += pair_inc_offset_[i];
    }
    term_inc_.resize(term_inc_offset_[n]);
    pair_inc_.resize(pair_inc_offset_[n]);
    std::vector<int> cursor(term_inc_offset_.begin(),
                            term_inc_offset_.end() - 1);
    for (int k = 0; k < m; ++k) {
      const auto& comps = claim_components_[k];
      for (int j = 0; j < static_cast<int>(comps.size()); ++j) {
        term_inc_[cursor[comps[j].object]++] = {k, std::uint32_t{1} << j};
      }
    }
    cursor.assign(pair_inc_offset_.begin(), pair_inc_offset_.end() - 1);
    for (int p = 0; p < static_cast<int>(pairs_.size()); ++p) {
      const auto& members = pair_members_[p];
      for (int j = 0; j < static_cast<int>(members.size()); ++j) {
        pair_inc_[cursor[members[j]]++] = {p, std::uint32_t{1} << j};
      }
    }
  }
}

void ClaimEvEvaluator::RefreshIfStale() const {
  const std::uint64_t now = problem_->epoch();
  if (now == seen_epoch_) return;
  CleaningProblem::ProblemChanges changes;
  const bool covered = problem_->ChangesSince(seen_epoch_, &changes);
  seen_epoch_ = now;
  if (!covered || changes.structure_changed) {
    RefreshStructure();
    RefreshAllTerms();
    return;
  }
  if (!changes.dist_changed.empty()) RefreshObjects(changes.dist_changed);
  // Value/cost-only changes invalidate nothing: EVar/ECov terms integrate
  // only over the error distributions (the reference is pinned at
  // construction by contract).
}

void ClaimEvEvaluator::RefreshStructure() const {
  const int n = problem_->size();
  const int old_n = static_cast<int>(object_claims_.size());
  for (int i = n; i < old_n; ++i) {
    // Removal is only legal while no claim references the object —
    // otherwise the fixed claim structure would point past the end.
    FC_CHECK(object_claims_[i].empty());
    FC_CHECK(object_pairs_[i].empty());
  }
  object_claims_.resize(n);
  object_pairs_.resize(n);
  if (!term_inc_offset_.empty()) {
    // Objects added at the tail carry no incidences, so growing repeats
    // the terminal offset; shrinking truncates rows that (checked above)
    // contributed no entries.
    const int term_tail = term_inc_offset_.back();
    const int pair_tail = pair_inc_offset_.back();
    term_inc_offset_.resize(n + 1, term_tail);
    pair_inc_offset_.resize(n + 1, pair_tail);
  }
}

void ClaimEvEvaluator::RefreshAllTerms() const {
  for (auto& c : evar_cache_) c.clear();
  for (auto& c : ecov_cache_) c.clear();
  for (auto& c : evar_flat_cache_) {
    c.value.clear();
    c.present.clear();
  }
  for (auto& c : ecov_flat_cache_) {
    c.value.clear();
    c.present.clear();
  }
  planes_ = problem_->planes_ptr();
  // The EVFast base values are re-derived lazily by the next InitFastEv
  // (which also resizes cleaned_scratch_ to the new object count).
  fast_ev_ready_ = false;
}

void ClaimEvEvaluator::RefreshObjects(const std::vector<int>& changed) const {
  planes_ = problem_->planes_ptr();
  // Theorem 3.8's locality in reverse: a distribution change to object i
  // can only move the terms of claims/pairs referencing i.  Gather that
  // footprint (sorted unique — neighbouring changed objects share terms)
  // and drop exactly those cache rows.
  std::vector<int> touched_claims, touched_pairs;
  for (int i : changed) {
    FC_DCHECK_GE(i, 0);
    FC_DCHECK_LT(i, static_cast<int>(object_claims_.size()));
    for (int k : object_claims_[i]) touched_claims.push_back(k);
    for (int p : object_pairs_[i]) touched_pairs.push_back(p);
  }
  std::sort(touched_claims.begin(), touched_claims.end());
  touched_claims.erase(
      std::unique(touched_claims.begin(), touched_claims.end()),
      touched_claims.end());
  std::sort(touched_pairs.begin(), touched_pairs.end());
  touched_pairs.erase(std::unique(touched_pairs.begin(), touched_pairs.end()),
                      touched_pairs.end());
  for (int k : touched_claims) {
    evar_cache_[k].clear();
    evar_flat_cache_[k].value.clear();
    evar_flat_cache_[k].present.clear();
  }
  for (int p : touched_pairs) {
    ecov_cache_[p].clear();
    ecov_flat_cache_[p].value.clear();
    ecov_flat_cache_[p].present.clear();
  }
  if (fast_ev_ready_) {
    // Re-derive the touched empty-set bases, then re-sum base_ev_total_
    // over ALL terms in InitFastEv's exact accumulation order — an
    // incremental "+= delta" would round differently from a freshly
    // constructed evaluator, and the equivalence suites pin selections
    // across the two.
    for (int k : touched_claims) base_evar_[k] = EVarTermMask(k, 0);
    for (int p : touched_pairs) base_ecov_[p] = ECovTermMask(p, 0);
    double total = 0.0;
    for (double v : base_evar_) total += v;
    for (double v : base_ecov_) total += 2.0 * v;
    base_ev_total_ = total;
  }
}

double* ClaimEvEvaluator::FlatSlot(FlatTermCache& cache, int width,
                                   std::uint32_t mask, bool* found) {
  if (cache.value.empty()) {
    const std::size_t slots = std::size_t{1} << width;
    cache.value.assign(slots, 0.0);
    cache.present.assign((slots + 63) / 64, 0);
  }
  const std::uint64_t bit = std::uint64_t{1} << (mask & 63u);
  *found = (cache.present[mask >> 6] & bit) != 0;
  // Mark eagerly on a miss: the caller fills the slot before anyone can
  // re-read it (term computation never re-enters the same term's cache).
  // Hits stay store-free so warm lookups don't dirty the present words.
  if (!*found) cache.present[mask >> 6] |= bit;
  return &cache.value[mask];
}

// --- Term computation ------------------------------------------------------

int ClaimEvEvaluator::ConvolveComponents(
    const std::vector<Component>& components,
    const std::vector<bool>& is_cleaned, bool want_cleaned,
    ConvolutionWorkspace& ws) const {
  term_scratch_.clear();
  for (const Component& comp : components) {
    if (is_cleaned[comp.object] != want_cleaned) continue;
    term_scratch_.push_back({planes_->values(comp.object),
                             planes_->probs(comp.object),
                             planes_->support_size(comp.object), comp.coeff});
  }
  return ConvolveSumFlat(term_scratch_.data(),
                         static_cast<int>(term_scratch_.size()), ws,
                         &counters_);
}

int ClaimEvEvaluator::ConvolveComponents2(
    const std::vector<Component2>& components,
    const std::vector<bool>& is_cleaned, bool want_cleaned,
    ConvolutionWorkspace2& ws) const {
  term2_scratch_.clear();
  for (const Component2& comp : components) {
    if (is_cleaned[comp.object] != want_cleaned) continue;
    term2_scratch_.push_back({planes_->values(comp.object),
                              planes_->probs(comp.object),
                              planes_->support_size(comp.object), comp.coeff_a,
                              comp.coeff_b});
  }
  return ConvolveSum2Flat(term2_scratch_.data(),
                          static_cast<int>(term2_scratch_.size()), ws,
                          &counters_);
}

double ClaimEvEvaluator::EVarTermUncached(
    int k, const std::vector<bool>& is_cleaned) const {
  const auto& comps = claim_components_[k];
  const int nu = ConvolveComponents(comps, is_cleaned, false, ws1_a_);
  if (nu <= 1) return 0.0;  // fully cleaned => no variance
  const int ncl = ConvolveComponents(comps, is_cleaned, true, ws1_b_);
  const double base = claim_intercepts_[k];
  const double* FC_RESTRICT cv = ws1_b_.values();
  const double* FC_RESTRICT cp = ws1_b_.probs();
  const double* FC_RESTRICT sv = ws1_a_.values();
  const double* FC_RESTRICT sp = ws1_a_.probs();
  double ev = 0.0;
  DispatchQualityTransform(measure_, direction_, reference_, [&](auto make_g) {
    auto g = make_g(context_->sensibilities[k]);
    for (int c = 0; c < ncl; ++c) {
      double m1, m2;
      TransformedMoments(sv, sp, nu, base + cv[c], g, &m1, &m2);
      double var = m2 - m1 * m1;
      if (var > 0.0) ev += cp[c] * var;
    }
  });
  return ev;
}

double ClaimEvEvaluator::MeanTerm(int k,
                                  const std::vector<bool>& is_cleaned) const {
  const auto& comps = claim_components_[k];
  const int nu = ConvolveComponents(comps, is_cleaned, false, ws1_a_);
  const int ncl = ConvolveComponents(comps, is_cleaned, true, ws1_b_);
  double mean = 0.0;
  DispatchQualityTransform(measure_, direction_, reference_, [&](auto make_g) {
    auto g = make_g(context_->sensibilities[k]);
    mean = CrossTransformedSum(ws1_b_.values(), ws1_b_.probs(), ncl,
                               ws1_a_.values(), ws1_a_.probs(), nu,
                               claim_intercepts_[k], g);
  });
  return mean;
}

double ClaimEvEvaluator::ECovTermUncached(
    int pair_idx, const std::vector<bool>& is_cleaned) const {
  const Pair& pair = pairs_[pair_idx];
  // No uncleaned shared object => conditional independence => zero.
  const int nsh = ConvolveComponents2(pair.shared, is_cleaned, false, ws2_a_);
  if (nsh <= 1) return 0.0;
  const int ncl = ConvolveComponents2(pair.all, is_cleaned, true, ws2_b_);
  const int n1 = ConvolveComponents(pair.exclusive1, is_cleaned, false, ws1_a_);
  const int n2 = ConvolveComponents(pair.exclusive2, is_cleaned, false, ws1_b_);
  const double base1 = claim_intercepts_[pair.k1];
  const double base2 = claim_intercepts_[pair.k2];
  const double* FC_RESTRICT ca = ws2_b_.a();
  const double* FC_RESTRICT cb = ws2_b_.b();
  const double* FC_RESTRICT cp = ws2_b_.probs();
  const double* FC_RESTRICT da = ws2_a_.a();
  const double* FC_RESTRICT db = ws2_a_.b();
  const double* FC_RESTRICT dp = ws2_a_.probs();
  const double* FC_RESTRICT x1v = ws1_a_.values();
  const double* FC_RESTRICT x1p = ws1_a_.probs();
  const double* FC_RESTRICT x2v = ws1_b_.values();
  const double* FC_RESTRICT x2p = ws1_b_.probs();
  double ecov = 0.0;
  DispatchQualityTransform(measure_, direction_, reference_, [&](auto make_g) {
    auto g1 = make_g(context_->sensibilities[pair.k1]);
    auto g2 = make_g(context_->sensibilities[pair.k2]);
    for (int c = 0; c < ncl; ++c) {
      // Shifts group as (base + c) + d + value, a fixed order.
      const double c1 = base1 + ca[c];
      const double c2 = base2 + cb[c];
      double e12 = 0.0, e1 = 0.0, e2 = 0.0;
      for (int d = 0; d < nsh; ++d) {
        const double h1 = TransformedSum(x1v, x1p, n1, c1 + da[d], g1);
        const double h2 = TransformedSum(x2v, x2p, n2, c2 + db[d], g2);
        e12 += dp[d] * h1 * h2;
        e1 += dp[d] * h1;
        e2 += dp[d] * h2;
      }
      ecov += cp[c] * (e12 - e1 * e2);
    }
  });
  return ecov;
}

// --- Term memoization and dispatch ----------------------------------------

template <typename Compute>
double ClaimEvEvaluator::Memoized(FlatTermCache& flat, HashTermCache& hash,
                                  int width, std::uint32_t mask,
                                  Compute&& compute) {
  if (width <= kFlatCacheBits) {
    bool found = false;
    double* slot = FlatSlot(flat, width, mask, &found);
    if (!found) *slot = compute();
    return *slot;
  }
  auto it = hash.find(mask);
  if (it != hash.end()) return it->second;
  const double value = compute();
  hash.emplace(mask, value);
  return value;
}

double ClaimEvEvaluator::EVarTerm(int k,
                                  const std::vector<bool>& is_cleaned) const {
  const auto& comps = claim_components_[k];
  const int width = static_cast<int>(comps.size());
  if (width > kHashCacheBits) return EVarTermUncached(k, is_cleaned);
  std::uint32_t mask = 0;
  for (int j = 0; j < width; ++j) {
    if (is_cleaned[comps[j].object]) mask |= std::uint32_t{1} << j;
  }
  return Memoized(evar_flat_cache_[k], evar_cache_[k], width, mask,
                  [&] { return EVarTermUncached(k, is_cleaned); });
}

double ClaimEvEvaluator::ECovTerm(int pair_idx,
                                  const std::vector<bool>& is_cleaned) const {
  const auto& members = pair_members_[pair_idx];
  const int width = static_cast<int>(members.size());
  if (width > kHashCacheBits) return ECovTermUncached(pair_idx, is_cleaned);
  std::uint32_t mask = 0;
  for (int j = 0; j < width; ++j) {
    if (is_cleaned[members[j]]) mask |= std::uint32_t{1} << j;
  }
  return Memoized(ecov_flat_cache_[pair_idx], ecov_cache_[pair_idx], width,
                  mask, [&] { return ECovTermUncached(pair_idx, is_cleaned); });
}

double ClaimEvEvaluator::EVarTermMask(int k, std::uint32_t mask) const {
  const auto& comps = claim_components_[k];
  const int width = static_cast<int>(comps.size());
  bool found = false;
  double* slot = FlatSlot(evar_flat_cache_[k], width, mask, &found);
  if (found) return *slot;
  for (int j = 0; j < width; ++j) {
    if (mask & (std::uint32_t{1} << j)) {
      cleaned_scratch_[comps[j].object] = true;
    }
  }
  double value = EVarTermUncached(k, cleaned_scratch_);
  for (int j = 0; j < width; ++j) {
    if (mask & (std::uint32_t{1} << j)) {
      cleaned_scratch_[comps[j].object] = false;
    }
  }
  *slot = value;
  return value;
}

double ClaimEvEvaluator::ECovTermMask(int pair_idx, std::uint32_t mask) const {
  const auto& members = pair_members_[pair_idx];
  const int width = static_cast<int>(members.size());
  bool found = false;
  double* slot = FlatSlot(ecov_flat_cache_[pair_idx], width, mask, &found);
  if (found) return *slot;
  for (int j = 0; j < width; ++j) {
    if (mask & (std::uint32_t{1} << j)) cleaned_scratch_[members[j]] = true;
  }
  double value = ECovTermUncached(pair_idx, cleaned_scratch_);
  for (int j = 0; j < width; ++j) {
    if (mask & (std::uint32_t{1} << j)) cleaned_scratch_[members[j]] = false;
  }
  *slot = value;
  return value;
}

void ClaimEvEvaluator::InitFastEv() const {
  const int m = context_->size();
  const int np = static_cast<int>(pairs_.size());
  // EVFast owns cleaned_scratch_ from here on and keeps it all-false
  // between calls (the mask accessors restore the bits they set).
  cleaned_scratch_.assign(problem_->size(), false);
  base_evar_.resize(m);
  base_ecov_.resize(np);
  term_mask_.assign(m, 0);
  pair_mask_.assign(np, 0);
  touched_terms_.reserve(m);
  touched_pairs_.reserve(np);
  // EV(empty), accumulated in EV()'s claim-then-pair order.
  double total = 0.0;
  for (int k = 0; k < m; ++k) {
    base_evar_[k] = EVarTermMask(k, 0);
    total += base_evar_[k];
  }
  for (int p = 0; p < np; ++p) {
    base_ecov_[p] = ECovTermMask(p, 0);
    total += 2.0 * base_ecov_[p];
  }
  base_ev_total_ = total;
  fast_ev_ready_ = true;
}

double ClaimEvEvaluator::EvarMaskValue(int k, std::uint32_t mask) const {
  const FlatTermCache& c = evar_flat_cache_[k];
  if (!c.value.empty() &&
      (c.present[mask >> 6] & (std::uint64_t{1} << (mask & 63u))) != 0) {
    return c.value[mask];
  }
  return EVarTermMask(k, mask);
}

double ClaimEvEvaluator::EcovMaskValue(int pair_idx,
                                       std::uint32_t mask) const {
  const FlatTermCache& c = ecov_flat_cache_[pair_idx];
  if (!c.value.empty() &&
      (c.present[mask >> 6] & (std::uint64_t{1} << (mask & 63u))) != 0) {
    return c.value[mask];
  }
  return ECovTermMask(pair_idx, mask);
}

double ClaimEvEvaluator::EVFast(const std::vector<int>& cleaned) const {
  if (!fast_ev_ready_) InitFastEv();
  const int n = problem_->size();
  for (int i : cleaned) {
    FC_CHECK_GE(i, 0);
    FC_CHECK_LT(i, n);
    for (int e = term_inc_offset_[i]; e < term_inc_offset_[i + 1]; ++e) {
      const auto [t, bit] = term_inc_[e];
      if (term_mask_[t] == 0) touched_terms_.push_back(t);
      term_mask_[t] |= bit;
    }
    for (int e = pair_inc_offset_[i]; e < pair_inc_offset_[i + 1]; ++e) {
      const auto [p, bit] = pair_inc_[e];
      if (pair_mask_[p] == 0) touched_pairs_.push_back(p);
      pair_mask_[p] |= bit;
    }
  }
  double ev = base_ev_total_;
  for (int t : touched_terms_) {
    ev += EvarMaskValue(t, term_mask_[t]) - base_evar_[t];
    term_mask_[t] = 0;
  }
  for (int p : touched_pairs_) {
    ev += 2.0 * (EcovMaskValue(p, pair_mask_[p]) - base_ecov_[p]);
    pair_mask_[p] = 0;
  }
  touched_terms_.clear();
  touched_pairs_.clear();
  return ev;
}

double ClaimEvEvaluator::EV(const std::vector<int>& cleaned) const {
  RefreshIfStale();
  if (fast_ev_ok_) return EVFast(cleaned);  // narrow terms
  cleaned_scratch_.assign(problem_->size(), false);
  std::vector<bool>& is_cleaned = cleaned_scratch_;
  for (int i : cleaned) {
    FC_CHECK_GE(i, 0);
    FC_CHECK_LT(i, problem_->size());
    is_cleaned[i] = true;
  }
  double ev = 0.0;
  for (int k = 0; k < context_->size(); ++k) ev += EVarTerm(k, is_cleaned);
  for (int p = 0; p < static_cast<int>(pairs_.size()); ++p) {
    ev += 2.0 * ECovTerm(p, is_cleaned);
  }
  return ev;
}

QualityMoments ClaimEvEvaluator::Moments() const {
  RefreshIfStale();
  std::vector<bool> is_cleaned(problem_->size(), false);
  QualityMoments moments;
  for (int k = 0; k < context_->size(); ++k) {
    moments.mean += MeanTerm(k, is_cleaned);
    moments.variance += EVarTerm(k, is_cleaned);
  }
  for (int p = 0; p < static_cast<int>(pairs_.size()); ++p) {
    moments.variance += 2.0 * ECovTerm(p, is_cleaned);
  }
  if (moments.variance < 0.0) moments.variance = 0.0;
  return moments;
}

double ClaimEvEvaluator::Benefit(int i, std::vector<bool>& is_cleaned,
                                 const std::vector<double>& evar_terms,
                                 const std::vector<double>& ecov_terms) const {
  FC_CHECK(!is_cleaned[i]);
  double before = 0.0, after = 0.0;
  is_cleaned[i] = true;
  for (int k : object_claims_[i]) {
    before += evar_terms[k];
    after += EVarTerm(k, is_cleaned);
  }
  for (int p : object_pairs_[i]) {
    before += 2.0 * ecov_terms[p];
    after += 2.0 * ECovTerm(p, is_cleaned);
  }
  is_cleaned[i] = false;
  return before - after;
}

int ClaimEvEvaluator::NumClaimsReferencing(int object) const {
  RefreshIfStale();
  FC_CHECK_GE(object, 0);
  FC_CHECK_LT(object, problem_->size());
  return static_cast<int>(object_claims_[object].size());
}

int ClaimEvEvaluator::MaxClaimDegree() const {
  size_t degree = 0;
  for (const auto& claims : object_claims_) {
    degree = std::max(degree, claims.size());
  }
  return static_cast<int>(degree);
}

// The engine-pluggable face of the evaluator's benefit maintenance: the
// committed cleaned set lives here (is_cleaned_ plus the cached term
// values), a probe is one Benefit() call over object i's claim/pair
// footprint, and a commit refreshes exactly the terms i participates in.
// Value() re-sums the cached terms in ClaimEvEvaluator::EV's accumulation
// order, so it is bit-equal to the batch EV of the same set.
class ClaimIncrementalObjective final : public IncrementalObjective {
 public:
  explicit ClaimIncrementalObjective(const ClaimEvEvaluator* evaluator)
      : ev_(evaluator),
        is_cleaned_(ev_->problem_->size(), false),
        evar_terms_(ev_->context_->size(), 0.0),
        ecov_terms_(ev_->pairs_.size(), 0.0) {
    // No Reset here: the full term pass is the expensive part, and the
    // engine Resets before the first probe anyway.
  }

  void Reset(const std::vector<int>& cleaned) override {
    // A run always starts with Reset, so syncing here covers every probe
    // and commit of the run (the problem cannot mutate mid-run — the
    // holder serializes mutations against selections).
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
    for (int p = 0; p < static_cast<int>(ev_->pairs_.size()); ++p) {
      ecov_terms_[p] = ev_->ECovTerm(p, is_cleaned_);
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
    return -ev_->Benefit(i, is_cleaned_, evar_terms_, ecov_terms_);
  }

  void Commit(int i) override {
    FC_CHECK(ready_);
    FC_CHECK(!is_cleaned_[i]);
    is_cleaned_[i] = true;
    for (int k : ev_->object_claims_[i]) {
      evar_terms_[k] = ev_->EVarTerm(k, is_cleaned_);
    }
    for (int p : ev_->object_pairs_[i]) {
      ecov_terms_[p] = ev_->ECovTerm(p, is_cleaned_);
    }
    RecomputeValue();
  }

 private:
  void RecomputeValue() {
    double ev = 0.0;
    for (double t : evar_terms_) ev += t;
    for (double t : ecov_terms_) ev += 2.0 * t;
    value_ = ev;
  }

  const ClaimEvEvaluator* ev_;
  std::vector<bool> is_cleaned_;
  std::vector<double> evar_terms_;
  std::vector<double> ecov_terms_;
  double value_ = 0.0;
  bool ready_ = false;  // Reset() must run before the first use
};

std::unique_ptr<IncrementalObjective> ClaimEvEvaluator::MakeIncremental()
    const {
  return std::make_unique<ClaimIncrementalObjective>(this);
}

Selection ClaimEvEvaluator::GreedyMinVar(double budget) const {
  return GreedyMinVar(budget, GreedyOptions{});
}

Selection ClaimEvEvaluator::GreedyMinVar(double budget,
                                         const GreedyOptions& options) const {
  RefreshIfStale();
  int n = problem_->size();
  // Incremental-work counters surfaced through options.stats_out: every
  // per-claim / per-pair term (re)computation counts as one evaluation —
  // the unit of work Theorem 3.8's locality argument bounds — while
  // Benefit() calls and picks map onto the engine's probe/commit
  // counters.  Kernel work is reported as the delta of the evaluator's
  // lifetime counters over this run.
  const KernelCounters kernel_before = counters_;
  std::int64_t term_evaluations = 0;
  std::int64_t probes = 0;
  std::int64_t commits = 0;
  std::vector<bool> is_cleaned(n, false);
  std::vector<double> evar_terms(context_->size());
  for (int k = 0; k < context_->size(); ++k) {
    evar_terms[k] = EVarTerm(k, is_cleaned);
    ++term_evaluations;
  }
  std::vector<double> ecov_terms(pairs_.size());
  for (int p = 0; p < static_cast<int>(pairs_.size()); ++p) {
    ecov_terms[p] = ECovTerm(p, is_cleaned);
    ++term_evaluations;
  }
  double ev0 = 0.0;
  for (double t : evar_terms) ev0 += t;
  for (double t : ecov_terms) ev0 += 2.0 * t;

  // Heap of (score, version, object); stale versions are skipped on pop.
  struct Entry {
    double score;
    int version;
    int object;
    bool operator<(const Entry& other) const { return score < other.score; }
  };
  std::priority_queue<Entry> heap;
  std::vector<int> version(n, 0);
  std::vector<double> benefit(n, 0.0);
  std::vector<double> initial_benefit(n, 0.0);
  const std::vector<double> costs = problem_->Costs();
  for (int i = 0; i < n; ++i) {
    if (object_claims_[i].empty() && object_pairs_[i].empty()) continue;
    benefit[i] = Benefit(i, is_cleaned, evar_terms, ecov_terms);
    ++probes;
    initial_benefit[i] = benefit[i];
    double score = options.cost_aware ? benefit[i] / costs[i] : benefit[i];
    heap.push({score, 0, i});
  }

  Selection sel;
  double ev_current = ev0;
  while (!heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    int i = top.object;
    if (top.version != version[i] || is_cleaned[i]) continue;
    // Remaining budget only shrinks, so an unaffordable object stays
    // unaffordable and can be dropped for good.
    if (sel.cost + costs[i] > budget) continue;
    // Select i.
    is_cleaned[i] = true;
    sel.cleaned.push_back(i);
    sel.cost += costs[i];
    ++commits;
    ev_current -= benefit[i];
    // Refresh the terms i participates in, then the benefits of every
    // object sharing one of those terms (locality of Theorem 3.8).
    std::set<int> dirty_objects;
    for (int k : object_claims_[i]) {
      evar_terms[k] = EVarTerm(k, is_cleaned);
      ++term_evaluations;
      for (const Component& c : claim_components_[k]) {
        dirty_objects.insert(c.object);
      }
    }
    for (int p : object_pairs_[i]) {
      ecov_terms[p] = ECovTerm(p, is_cleaned);
      ++term_evaluations;
      const Pair& pair = pairs_[p];
      for (const auto& c : pair.shared) dirty_objects.insert(c.object);
      for (const auto& c : pair.exclusive1) dirty_objects.insert(c.object);
      for (const auto& c : pair.exclusive2) dirty_objects.insert(c.object);
    }
    for (int obj : dirty_objects) {
      if (is_cleaned[obj]) continue;
      benefit[obj] = Benefit(obj, is_cleaned, evar_terms, ecov_terms);
      ++probes;
      ++version[obj];
      double score =
          options.cost_aware ? benefit[obj] / costs[obj] : benefit[obj];
      heap.push({score, version[obj], obj});
    }
  }

  if (options.final_check && !sel.cleaned.empty()) {
    // Algorithm 1 lines 5-8 via cached initial benefits:
    // EV({l}) = EV(empty) - initial_benefit[l].
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (is_cleaned[i] || costs[i] > budget) continue;
      if (best < 0 || initial_benefit[i] > initial_benefit[best]) best = i;
    }
    if (best >= 0 && ev0 - initial_benefit[best] < ev_current) {
      sel.cleaned = {best};
      sel.cost = costs[best];
    }
  }
  sel.order = sel.cleaned;
  std::sort(sel.cleaned.begin(), sel.cleaned.end());
  if (options.stats_out != nullptr) {
    // Assign the whole struct so every exit — including the degenerate
    // budget-0 / no-referenced-object cases that never enter the heap
    // loop — reports a fully defined EngineStats.
    EngineStats stats;
    stats.evaluations = term_evaluations;
    stats.probes = probes;
    stats.commits = commits;
    stats.kernel_calls = counters_.calls - kernel_before.calls;
    stats.kernel_atoms = counters_.atoms - kernel_before.atoms;
    *options.stats_out = stats;
  }
  return sel;
}

}  // namespace factcheck
