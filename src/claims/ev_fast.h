// Structured expected-variance evaluation for claim-quality measures
// (Theorem 3.8) and the incremental GreedyMinVar built on it.
//
// For a quality measure f(X) = sum_k g_k(q_k(X)) over linear claims with
// mutually independent X, the MinVar objective decomposes as
//
//   EV(T) = sum_k E_T[Var(g_k | X_T)]
//         + 2 sum_{k < k'} E_T[Cov(g_k, g_k' | X_T)],
//
// where only the objects referenced by a claim (pair) matter, and a pair
// contributes only while the claims share an *uncleaned* object.  Each term
// is computed exactly by convolving the per-object scaled supports into
// sum distributions (1-D per claim; 2-D over the objects shared by a
// pair), giving the O(m^2 V^{3W} W + n) bound of Theorem 3.8 instead of
// enumeration over the full joint support.
//
// The evaluator also powers a scalable greedy: cleaning object i only
// changes the terms of claims/pairs referencing i, so per-object benefits
// are maintained incrementally and selection runs near-linearly in the
// number of cleanings (the Fig 10 efficiency experiments).
//
// Data path: the evaluator reads the problem's shared SoA distribution
// planes (CleaningProblem::planes()) and computes every term through the
// flat-array kernels of dist/kernels.h with per-evaluator reused
// workspaces.  Term values are memoized on the cleaned-subset mask of the
// term's members, in a tier chosen by term width: a flat mask-indexed
// array (<= 12 members), a hash map (<= 30), uncached beyond that.

#ifndef FACTCHECK_CLAIMS_EV_FAST_H_
#define FACTCHECK_CLAIMS_EV_FAST_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "claims/quality.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/problem.h"
#include "dist/kernels.h"

namespace factcheck {

class ClaimIncrementalObjective;
class DistPlanes;

class ClaimEvEvaluator {
 public:
  // `problem` and `context` must outlive the evaluator.  `reference` is
  // q*(u) evaluated on the current values (or the claim's stated Gamma).
  ClaimEvEvaluator(const CleaningProblem* problem,
                   const PerturbationSet* context, QualityMeasure measure,
                   double reference,
                   StrengthDirection direction =
                       StrengthDirection::kHigherIsStronger);

  // Deterministic kernel-work counters (calls + atoms) accumulated over
  // this evaluator's lifetime; GreedyMinVar reports per-run deltas
  // through GreedyOptions::stats_out.
  const KernelCounters& kernel_counters() const { return counters_; }

  // EV(T): exact expected posterior variance of the measure.
  double EV(const std::vector<int>& cleaned) const;

  // Var[f(X)] = EV(empty).
  double PriorVariance() const { return EV({}); }

  // Mean and variance of the measure under the problem's current
  // distributions (cleaned objects should already be point masses).
  QualityMoments Moments() const;

  // Adaptive greedy (Algorithm 1) with incremental benefit maintenance.
  Selection GreedyMinVar(double budget) const;
  Selection GreedyMinVar(double budget, const GreedyOptions& options) const;

  // The same benefit maintenance packaged as an engine-pluggable
  // IncrementalObjective (core/incremental.h): ProbeGain(i) refreshes
  // only the claim/pair terms referencing i (Theorem 3.8's locality), so
  // EvalEngine's greedy drivers — and through them every Planner
  // algorithm that consumes a SetObjective — run at the bespoke greedy's
  // cost instead of one full EV per candidate.  The instance shares this
  // evaluator's memoized term caches; the caches are not locked, so do
  // not drive it concurrently with other EV() callers.  The evaluator
  // must outlive the returned objective.
  std::unique_ptr<IncrementalObjective> MakeIncremental() const;

  // Number of claim pairs with overlapping references (covariance terms).
  int num_overlapping_pairs() const { return static_cast<int>(pairs_.size()); }

  // The maximum claim degree L of Theorem 3.8's refined bound: the largest
  // number of claims sharing any single object.
  int MaxClaimDegree() const;

  // How many perturbations reference the given object.
  int NumClaimsReferencing(int object) const;

  // Epoch resynchronization with the underlying problem, run by every
  // public entry point that reads problem state (EV, Moments,
  // GreedyMinVar, NumClaimsReferencing, and the incremental objective's
  // Reset): if the problem mutated since this
  // evaluator last looked (CleaningProblem::epoch), the touched term
  // caches, the planes snapshot and the EVFast base values are refreshed
  // before any value is served.  A distribution change to object i
  // invalidates exactly the claims/pairs referencing i (Theorem 3.8's
  // locality, applied in reverse); value/cost-only changes invalidate
  // nothing (the terms integrate only over distributions); structural
  // changes (and a journal that no longer reaches our stamp) refresh
  // everything.  The claim set itself is fixed at construction: objects
  // added later are cleanable but unreferenced, and an object may only be
  // removed while no claim references it.
  void RefreshIfStale() const;

 private:
  friend class ClaimIncrementalObjective;

  // One scaled component of a claim's sum: coeff * X_{object}.
  struct Component {
    int object;
    double coeff;
  };
  // A component of a pair's joint sum: X_{object} enters claim k1's sum
  // with coeff_a and claim k2's with coeff_b.
  struct Component2 {
    int object;
    double coeff_a;
    double coeff_b;
  };

  // RefreshIfStale's three repair stages: resize the object-indexed
  // tables after a tail add/remove, drop and re-derive everything, or
  // drop and re-derive only the terms referencing `changed` objects
  // (ascending, duplicate-free).
  void RefreshStructure() const;
  void RefreshAllTerms() const;
  void RefreshObjects(const std::vector<int>& changed) const;

  // Convolve the components whose cleaned-flag equals `want_cleaned` into
  // `ws` via the flat kernels: the distribution of sum(coeff_i X_i) (1-D),
  // or the joint (sum coeff_a X_i, sum coeff_b X_i) (2-D).  Returns the
  // atom count (planes readable off the workspace).
  int ConvolveComponents(const std::vector<Component>& components,
                         const std::vector<bool>& is_cleaned,
                         bool want_cleaned, ConvolutionWorkspace& ws) const;
  int ConvolveComponents2(const std::vector<Component2>& components,
                          const std::vector<bool>& is_cleaned,
                          bool want_cleaned, ConvolutionWorkspace2& ws) const;

  // Sparse EV over the planes caches: EV(T) = EV(empty) + sum over the
  // claim/pair terms TOUCHED by T of (term(mask) - term(empty)).  Only
  // terms referencing a cleaned object pay a cache lookup, so a batch EV
  // probe costs O(|T| * degree) instead of O(m).  The base-plus-delta
  // aggregation is deterministic for canonical (sorted) cleaned sets but
  // rounds differently from a full left-to-right term sum by a few ulps.
  // Requires every term width <= kFlatCacheBits (fast_ev_ok_); wider
  // evaluators take the generic full loop in EV().
  double EVFast(const std::vector<int>& cleaned) const;
  void InitFastEv() const;
  // Mask-keyed term access backing EVFast: flat-cache lookup, computing
  // the term on a miss (member flags are materialized in
  // cleaned_scratch_ and restored to all-false).
  double EVarTermMask(int k, std::uint32_t mask) const;
  double ECovTermMask(int pair_idx, std::uint32_t mask) const;
  // Store-free hit paths for the EVFast flush loop: return the cached
  // slot when the present bit is set, fall through to the mask methods
  // on a miss.
  double EvarMaskValue(int k, std::uint32_t mask) const;
  double EcovMaskValue(int pair_idx, std::uint32_t mask) const;

  // E_T[Var(g_k | X_T)] for claim k, memoized on the cleaned-subset mask
  // of the claim's references (a claim term has at most 2^W distinct
  // values, so repeated EV queries — e.g. from the ISSC algorithm — hit
  // the cache).  Problem mutations between public calls are absorbed by
  // RefreshIfStale, which drops the memo entries of every touched term.
  double EVarTerm(int k, const std::vector<bool>& is_cleaned) const;
  double EVarTermUncached(int k, const std::vector<bool>& is_cleaned) const;
  // E[g_k] under the current (partially cleaned) distributions.
  double MeanTerm(int k, const std::vector<bool>& is_cleaned) const;
  // E_T[Cov(g_k1, g_k2 | X_T)] for an overlapping pair (memoized like
  // EVarTerm, on the mask over the union of the pair's references).
  double ECovTerm(int pair_idx, const std::vector<bool>& is_cleaned) const;
  double ECovTermUncached(int pair_idx,
                          const std::vector<bool>& is_cleaned) const;

  // Benefit of cleaning object i on top of `is_cleaned` (which must not
  // already contain i), given the cached per-claim/pair term values.
  double Benefit(int i, std::vector<bool>& is_cleaned,
                 const std::vector<double>& evar_terms,
                 const std::vector<double>& ecov_terms) const;

  const CleaningProblem* problem_;
  const PerturbationSet* context_;
  QualityMeasure measure_;
  double reference_;
  StrengthDirection direction_;

  // Per-claim linear structure.
  std::vector<std::vector<Component>> claim_components_;
  std::vector<double> claim_intercepts_;

  // Overlapping pairs and their shared/exclusive component split.
  struct Pair {
    int k1;
    int k2;
    std::vector<Component2> shared;      // referenced by both claims
    std::vector<Component> exclusive1;   // only claim k1
    std::vector<Component> exclusive2;   // only claim k2
    std::vector<Component2> all;         // shared + exclusives as 2-D terms
  };
  std::vector<Pair> pairs_;

  // Incidence: object -> claims / pairs whose terms depend on it.
  // Mutable only for RefreshStructure's tail resize after add/remove
  // deltas; entries for pre-existing objects never change.
  mutable std::vector<std::vector<int>> object_claims_;
  mutable std::vector<std::vector<int>> object_pairs_;

  // Memoization: term value keyed by the cleaned-subset bitmask over the
  // term's member objects.  Narrow terms use a lazily-allocated flat array
  // per term (mask-indexed, branch-light); wider ones fall back to the
  // hash map below it (terms with <= 30 members) and to uncached
  // recomputation beyond that.
  struct FlatTermCache {
    std::vector<double> value;            // 1 << members entries
    std::vector<std::uint64_t> present;   // bitmap over the masks
  };
  // Lazily sizes `cache` for a `width`-member term and returns the slot
  // for `mask`, reporting through `found` whether it already held a value
  // (the caller fills the slot when it did not).
  static double* FlatSlot(FlatTermCache& cache, int width, std::uint32_t mask,
                          bool* found);
  using HashTermCache = std::unordered_map<std::uint32_t, double>;
  // The lookup shared by EVarTerm and ECovTerm: the flat tier for narrow
  // terms, else the hash tier; `compute` fills a miss.
  template <typename Compute>
  static double Memoized(FlatTermCache& flat, HashTermCache& hash, int width,
                         std::uint32_t mask, Compute&& compute);
  std::vector<std::vector<int>> pair_members_;  // sorted union refs per pair
  mutable std::vector<HashTermCache> evar_cache_;
  mutable std::vector<HashTermCache> ecov_cache_;
  mutable std::vector<FlatTermCache> evar_flat_cache_;
  mutable std::vector<FlatTermCache> ecov_flat_cache_;

  // Data path state: the problem's shared planes plus per-evaluator
  // kernel workspaces and flat-term scratch (reused across calls — the
  // evaluator is single-threaded by contract, see MakeIncremental).
  // Shared ownership pins the arena across problem mutations (the old
  // snapshot never dangles); RefreshIfStale re-acquires the problem's
  // current snapshot whenever a distribution changed.
  mutable std::shared_ptr<const DistPlanes> planes_;
  // Last problem epoch this evaluator's caches were synchronized with.
  mutable std::uint64_t seen_epoch_ = 0;
  mutable ConvolutionWorkspace ws1_a_, ws1_b_;
  mutable ConvolutionWorkspace2 ws2_a_, ws2_b_;
  mutable std::vector<FlatTerm> term_scratch_;
  mutable std::vector<FlatTerm2> term2_scratch_;
  mutable std::vector<bool> cleaned_scratch_;  // EV()'s per-call flag row
  mutable KernelCounters counters_;

  // EVFast state: object -> (term index, member bit) incidence so a
  // cleaned set maps straight to per-term masks, plus the empty-set term
  // values the deltas are taken against.  Built lazily on the first EV.
  // The incidence lists are CSR-flattened — object i's entries live at
  // [offset[i], offset[i+1]) of one contiguous array — so the EVFast
  // accumulation loop never chases per-object heap blocks.
  bool fast_ev_ok_ = false;  // all term widths fit the flat caches
  mutable bool fast_ev_ready_ = false;
  // Offsets are mutable for RefreshStructure's tail resize (new objects
  // carry no incidences, so the entry arrays themselves never change).
  mutable std::vector<int> term_inc_offset_, pair_inc_offset_;
  std::vector<std::pair<int, std::uint32_t>> term_inc_, pair_inc_;
  mutable std::vector<double> base_evar_, base_ecov_;
  mutable double base_ev_total_ = 0.0;
  mutable std::vector<std::uint32_t> term_mask_, pair_mask_;
  mutable std::vector<int> touched_terms_, touched_pairs_;
};

}  // namespace factcheck

#endif  // FACTCHECK_CLAIMS_EV_FAST_H_
