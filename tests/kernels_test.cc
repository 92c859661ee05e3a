// Kernel-equivalence tier for the SoA planes layer (dist/planes.h,
// dist/kernels.h): every convolution kernel must reproduce the SPECIFIED
// canonical order bit-for-bit — a naive std::stable_sort over the
// term-major expansion, equal keys' probabilities summed first to last —
// across randomized supports (point masses, zero coefficients, colliding
// values), tie-heavy integer supports, mixed-sign coefficients and
// rounding collapses at 1e16 magnitudes.  The transform reductions the
// claim evaluator runs are pinned against naive per-atom loops over
// QualityTransform for every measure and direction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "claims/ev_fast.h"
#include "claims/perturbation.h"
#include "claims/quality.h"
#include "data/synthetic.h"
#include "dist/convolution.h"
#include "dist/kernels.h"
#include "dist/planes.h"
#include "util/random.h"

namespace factcheck {
namespace {

// Bit pattern of a double: the equivalence pins are representation-exact
// (EXPECT_EQ on doubles would let -0.0 == 0.0 slip through).
std::uint64_t Bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// --- Specified stable-sort reference ----------------------------------------
// The canonical order of dist/kernels.h, written as naively as possible:
// every step expands term-major (run k = the accumulated sum shifted by
// the term's atom k), std::stable_sort's by key and sums exact-equal
// keys' probabilities first to last; a point-mass step shifts and
// canonicalizes the same way.  It must NEVER be updated to match the
// kernels; it defines what the kernels must hit.

void ReferenceCanonicalize(SumDistribution& d) {
  std::stable_sort(d.begin(), d.end(),
                   [](const SumAtom& x, const SumAtom& y) {
                     return x.value < y.value;
                   });
  size_t out = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (out > 0 && d[out - 1].value == d[i].value) {
      d[out - 1].prob += d[i].prob;
    } else {
      d[out++] = d[i];
    }
  }
  d.resize(out);
}

void ReferenceCanonicalize2(SumDistribution2& d) {
  std::stable_sort(d.begin(), d.end(),
                   [](const SumAtom2& x, const SumAtom2& y) {
                     return x.a != y.a ? x.a < y.a : x.b < y.b;
                   });
  size_t out = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (out > 0 && d[out - 1].a == d[i].a && d[out - 1].b == d[i].b) {
      d[out - 1].prob += d[i].prob;
    } else {
      d[out++] = d[i];
    }
  }
  d.resize(out);
}

SumDistribution ReferenceConvolveSum(const std::vector<WeightedTerm>& terms) {
  SumDistribution acc = {{0.0, 1.0}};
  for (const WeightedTerm& term : terms) {
    const DiscreteDistribution& x = *term.dist;
    if (x.is_point_mass()) {
      double shift = term.coeff * x.value(0);
      for (SumAtom& a : acc) a.value += shift;
      ReferenceCanonicalize(acc);
      continue;
    }
    if (term.coeff == 0.0) continue;
    SumDistribution next;
    for (int k = 0; k < x.support_size(); ++k) {
      for (const SumAtom& a : acc) {
        next.push_back(
            {a.value + term.coeff * x.value(k), a.prob * x.prob(k)});
      }
    }
    ReferenceCanonicalize(next);
    acc = std::move(next);
  }
  return acc;
}

SumDistribution2 ReferenceConvolveSum2(
    const std::vector<WeightedTerm2>& terms) {
  SumDistribution2 acc = {{0.0, 0.0, 1.0}};
  for (const WeightedTerm2& term : terms) {
    const DiscreteDistribution& x = *term.dist;
    if (x.is_point_mass()) {
      double da = term.coeff_a * x.value(0);
      double db = term.coeff_b * x.value(0);
      for (SumAtom2& a : acc) {
        a.a += da;
        a.b += db;
      }
      ReferenceCanonicalize2(acc);
      continue;
    }
    if (term.coeff_a == 0.0 && term.coeff_b == 0.0) continue;
    SumDistribution2 next;
    for (int k = 0; k < x.support_size(); ++k) {
      for (const SumAtom2& a : acc) {
        next.push_back({a.a + term.coeff_a * x.value(k),
                        a.b + term.coeff_b * x.value(k), a.prob * x.prob(k)});
      }
    }
    ReferenceCanonicalize2(next);
    acc = std::move(next);
  }
  return acc;
}

// --- Randomized instance generators ----------------------------------------

// `support` distinct atoms drawn from `pool` with random weights.
DiscreteDistribution DistFromPool(Rng& rng, std::vector<double> pool,
                                  int support) {
  for (int i = 0; i < support; ++i) {
    int j = rng.UniformInt(i, static_cast<int>(pool.size()) - 1);
    std::swap(pool[i], pool[j]);
  }
  std::vector<double> values, probs;
  for (int i = 0; i < support; ++i) {
    values.push_back(pool[i]);
    probs.push_back(rng.Uniform(0.1, 1.0));
  }
  return DiscreteDistribution(values, probs);
}

// Integer-spaced supports so cross-term sums collide and the merge branch
// of the canonicalization actually runs; support 1 yields the point-mass
// shift path.
DiscreteDistribution RandomDist(Rng& rng) {
  return DistFromPool(rng, {-3, -2, -1, 0, 1, 2, 3, 4},
                      rng.UniformInt(1, 4));
}

// Narrow integer supports of 3-6 atoms: from the third term on, most
// steps expand past 16 atoms (libstdc++'s insertion-sort cutoff, below
// which std::sort happens to be stable) with most keys tied.
DiscreteDistribution TieHeavyDist(Rng& rng) {
  return DistFromPool(rng, {0, 1, 2, 3, 4, 5}, rng.UniformInt(3, 6));
}

// Ulp-spaced small values next to 1e16 magnitudes, where the spacing of
// doubles is 2: shifting the accumulated sum by a large atom collapses
// distinct values into one.  A third of the draws are point masses, so
// shift-only steps interleave with expansions.
DiscreteDistribution CollapseDist(Rng& rng) {
  const double ulp1 = std::nextafter(1.0, 2.0) - 1.0;
  return DistFromPool(
      rng, {0.0, ulp1, 0.5, 1.0, 1.0 + ulp1, 3.0, 1e16, -1e16, 4e16},
      rng.UniformInt(0, 2) == 0 ? 1 : rng.UniformInt(2, 4));
}

// 2-64 integer atoms from [-40, 40].
DiscreteDistribution WideDist(Rng& rng) {
  std::vector<double> pool;
  for (int v = -40; v <= 40; ++v) pool.push_back(v);
  return DistFromPool(rng, pool, rng.UniformInt(2, 64));
}

// Zero, duplicate, negative and fractional coefficients all hit distinct
// branches of the kernels.
double RandomCoeff(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return -1.0;
    case 3: return 2.0;
    case 4: return 0.5;
    default: return rng.Uniform(-2.0, 2.0);
  }
}

// Mixed-sign integer coefficients: every tie stays an exact tie.
double SignedIntCoeff(Rng& rng) {
  static constexpr double kCoeffs[] = {1.0, -1.0, 2.0, -2.0};
  return kCoeffs[rng.UniformInt(0, 3)];
}

using DistGen = DiscreteDistribution (*)(Rng&);
using CoeffGen = double (*)(Rng&);

// Runs `trials` random term lists of up to `max_terms` terms through
// ConvolveSumFlat and ConvolveSum2Flat and pins both against the
// stable-sort reference bit-for-bit.
void ExpectKernelsMatchReference(std::uint64_t seed, int trials,
                                 int max_terms, DistGen dist_gen,
                                 CoeffGen coeff_gen) {
  Rng rng(seed);
  ConvolutionWorkspace ws;
  ConvolutionWorkspace2 ws2;
  KernelCounters counters;
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    int num_terms = rng.UniformInt(0, max_terms);
    std::vector<DiscreteDistribution> dists;
    dists.reserve(num_terms);  // FlatTerm borrows; no reallocation allowed
    std::vector<WeightedTerm> terms;
    std::vector<FlatTerm> flat;
    std::vector<WeightedTerm2> terms2;
    std::vector<FlatTerm2> flat2;
    for (int t = 0; t < num_terms; ++t) {
      dists.push_back(dist_gen(rng));
      const DiscreteDistribution& d = dists.back();
      // Exclusive-to-a, exclusive-to-b, shared and dead 2-D terms: the
      // four shapes the pair evaluator emits.
      double ca = coeff_gen(rng);
      double cb = coeff_gen(rng);
      terms.push_back({&d, ca});
      flat.push_back(
          {d.values().data(), d.probs().data(), d.support_size(), ca});
      terms2.push_back({&d, ca, cb});
      flat2.push_back(
          {d.values().data(), d.probs().data(), d.support_size(), ca, cb});
    }
    SumDistribution expect = ReferenceConvolveSum(terms);
    int n = ConvolveSumFlat(flat.data(), num_terms, ws, &counters);
    ASSERT_EQ(n, static_cast<int>(expect.size()));
    for (int k = 0; k < n; ++k) {
      EXPECT_EQ(Bits(ws.values()[k]), Bits(expect[k].value)) << "atom " << k;
      EXPECT_EQ(Bits(ws.probs()[k]), Bits(expect[k].prob)) << "atom " << k;
    }
    SumDistribution2 expect2 = ReferenceConvolveSum2(terms2);
    int n2 = ConvolveSum2Flat(flat2.data(), num_terms, ws2, &counters);
    ASSERT_EQ(n2, static_cast<int>(expect2.size()));
    for (int k = 0; k < n2; ++k) {
      EXPECT_EQ(Bits(ws2.a()[k]), Bits(expect2[k].a)) << "atom " << k;
      EXPECT_EQ(Bits(ws2.b()[k]), Bits(expect2[k].b)) << "atom " << k;
      EXPECT_EQ(Bits(ws2.probs()[k]), Bits(expect2[k].prob)) << "atom " << k;
    }
  }
  EXPECT_GT(counters.calls, 0);
  EXPECT_GT(counters.atoms, 0);
}

// --- Convolution kernels vs the reference ----------------------------------

TEST(KernelConvolveTest, FlatMatchesReferenceOnRandomizedTerms) {
  ExpectKernelsMatchReference(71, 3000, 5, RandomDist, RandomCoeff);
}

TEST(KernelConvolveTest, TieHeavySupportsMatchReference) {
  ExpectKernelsMatchReference(75, 1000, 6, TieHeavyDist, SignedIntCoeff);
}

TEST(KernelConvolveTest, RoundingCollapsesMatchReference) {
  // Mixed-sign coefficients over the collapse pool: 1-D and 2-D runs lose
  // distinct values to rounding, 2-D runs lose lexicographic order, and
  // point-mass shifts collapse neighbours between expansions.
  ExpectKernelsMatchReference(76, 4000, 5, CollapseDist, RandomCoeff);
}

TEST(KernelConvolveTest, ShimMatchesReference) {
  // The AoS ConvolveSum API routes through the flat kernel; the same
  // randomized instances must keep matching the reference through it.
  Rng rng(72);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    int num_terms = rng.UniformInt(0, 4);
    std::vector<DiscreteDistribution> dists;
    dists.reserve(num_terms);
    std::vector<WeightedTerm> terms;
    for (int t = 0; t < num_terms; ++t) {
      dists.push_back(RandomDist(rng));
      terms.push_back({&dists.back(), RandomCoeff(rng)});
    }
    SumDistribution expect = ReferenceConvolveSum(terms);
    SumDistribution got = ConvolveSum(terms);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(Bits(got[k].value), Bits(expect[k].value));
      EXPECT_EQ(Bits(got[k].prob), Bits(expect[k].prob));
    }
  }
}

TEST(KernelConvolveTest, TrailingPointMassLeavesCanonicalResult) {
  // {0, 1} + {0, ulp(1)} has four distinct sums; shifting them by 1e3
  // rounds 1000 + ulp(1) to 1000 and 1001 + ulp(1) to 1001, so the shift
  // must merge the collided neighbours (and, in 2-D, reorder the pairs
  // the b coordinate still tells apart).
  const double ulp1 = std::nextafter(1.0, 2.0) - 1.0;
  ASSERT_EQ(1000.0 + ulp1, 1000.0);
  DiscreteDistribution coin({0.0, 1.0}, {0.5, 0.5});
  DiscreteDistribution tiny({0.0, ulp1}, {0.5, 0.5});
  DiscreteDistribution point({1e3}, {1.0});
  std::vector<const DiscreteDistribution*> dists = {&coin, &tiny, &point};

  std::vector<FlatTerm> flat;
  for (const DiscreteDistribution* d : dists) {
    flat.push_back({d->values().data(), d->probs().data(), d->support_size(),
                    1.0});
  }
  ConvolutionWorkspace ws;
  ASSERT_EQ(ConvolveSumFlat(flat.data(), 3, ws, nullptr), 2);
  EXPECT_EQ(ws.values()[0], 1000.0);
  EXPECT_EQ(ws.values()[1], 1001.0);
  EXPECT_EQ(ws.probs()[0], 0.5);
  EXPECT_EQ(ws.probs()[1], 0.5);

  const double coeff_b[] = {0.0, -1.0, 0.0};
  std::vector<FlatTerm2> flat2;
  for (int t = 0; t < 3; ++t) {
    flat2.push_back({dists[t]->values().data(), dists[t]->probs().data(),
                     dists[t]->support_size(), 1.0, coeff_b[t]});
  }
  ConvolutionWorkspace2 ws2;
  ASSERT_EQ(ConvolveSum2Flat(flat2.data(), 3, ws2, nullptr), 4);
  const double want_a[] = {1000.0, 1000.0, 1001.0, 1001.0};
  const double want_b[] = {-ulp1, 0.0, -ulp1, 0.0};
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(ws2.a()[k], want_a[k]) << "atom " << k;
    EXPECT_EQ(ws2.b()[k], want_b[k]) << "atom " << k;
    EXPECT_EQ(ws2.probs()[k], 0.25) << "atom " << k;
  }
}

TEST(KernelConvolveTest, CollapsedRunIsReorderedStably) {
  // (0, 0), (1, -1) shifted by (1e16, 0): 1e16 + 1 rounds to 1e16, so the
  // second run arrives as (1e16, 0), (1e16, -1) and the per-run check must
  // restore (a, b) order before the merge.
  ASSERT_EQ(1e16 + 1.0, 1e16);
  DiscreteDistribution coin({0.0, 1.0}, {0.5, 0.5});
  DiscreteDistribution far({0.0, 1e16}, {0.5, 0.5});
  std::vector<FlatTerm2> flat2 = {
      {coin.values().data(), coin.probs().data(), 2, 1.0, -1.0},
      {far.values().data(), far.probs().data(), 2, 1.0, 0.0}};
  ConvolutionWorkspace2 ws2;
  ASSERT_EQ(ConvolveSum2Flat(flat2.data(), 2, ws2, nullptr), 4);
  const double want_a[] = {0.0, 1.0, 1e16, 1e16};
  const double want_b[] = {0.0, -1.0, -1.0, 0.0};
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(ws2.a()[k], want_a[k]) << "atom " << k;
    EXPECT_EQ(ws2.b()[k], want_b[k]) << "atom " << k;
  }
}

TEST(KernelConvolveTest, WideSupportsMatchReference) {
  // Supports far wider than the benchmark's 3-5 atoms: the merge cascade
  // runs up to six passes and, with integer values, most keys tie across
  // many runs.
  ExpectKernelsMatchReference(77, 20, 3, WideDist, SignedIntCoeff);
}

// --- Planes store -----------------------------------------------------------

TEST(DistPlanesTest, RowsAreBitExactCopiesOfSourceDistributions) {
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 7,
      {.size = 33, .min_support = 1, .max_support = 5});
  const DistPlanes& planes = problem.planes();
  ASSERT_EQ(planes.num_objects(), 33);
  std::int64_t atoms = 0;
  for (int i = 0; i < planes.num_objects(); ++i) {
    const DiscreteDistribution& d = problem.object(i).dist;
    ASSERT_EQ(planes.support_size(i), d.support_size());
    EXPECT_EQ(planes.is_point_mass(i), d.is_point_mass());
    EXPECT_EQ(std::memcmp(planes.values(i), d.values().data(),
                          sizeof(double) * d.support_size()),
              0);
    EXPECT_EQ(std::memcmp(planes.probs(i), d.probs().data(),
                          sizeof(double) * d.support_size()),
              0);
    // Rows start on 8-double boundaries relative to the arena base, so
    // kernels get aligned contiguous loads.
    EXPECT_EQ((planes.values(i) - planes.values(0)) % 8, 0);
    atoms += d.support_size();
  }
  EXPECT_EQ(planes.total_atoms(), atoms);
  EXPECT_GE(planes.arena_bytes(),
            static_cast<std::int64_t>(2 * sizeof(double) * atoms));
}

TEST(DistPlanesTest, ProblemCacheRebuildsAfterClean) {
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 9,
      {.size = 8, .min_support = 2});
  ASSERT_GT(problem.planes().support_size(3), 1);
  problem.Clean(3, problem.object(3).dist.Mean());
  // The planes cache is invalidated by mutation: the rebuilt store sees
  // the point mass the cleaning installed.
  EXPECT_EQ(problem.planes().support_size(3), 1);
}

// --- Flat reductions vs naive loops ----------------------------------------

TEST(KernelReductionTest, ReductionsMatchNaiveLoopsBitwise) {
  Rng rng(74);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    DiscreteDistribution d = RandomDist(rng);
    const double* v = d.values().data();
    const double* p = d.probs().data();
    int n = d.support_size();

    double mean = 0.0;
    for (int k = 0; k < n; ++k) mean += p[k] * v[k];
    EXPECT_EQ(Bits(WeightedSum(v, p, n)), Bits(mean));
    EXPECT_EQ(Bits(d.Mean()), Bits(mean));

    double m2 = 0.0;
    for (int k = 0; k < n; ++k) m2 += p[k] * v[k] * v[k];
    EXPECT_EQ(Bits(WeightedSquareSum(v, p, n)), Bits(m2));
    EXPECT_EQ(Bits(d.SecondMoment()), Bits(m2));

    double var = 0.0;
    for (int k = 0; k < n; ++k) {
      double dv = v[k] - mean;
      var += p[k] * dv * dv;
    }
    EXPECT_EQ(Bits(CenteredSquareSum(v, p, n, mean)), Bits(var));
    EXPECT_EQ(Bits(d.Variance()), Bits(var));

    double ent = 0.0;
    for (int k = 0; k < n; ++k) {
      if (p[k] > 0.0) ent -= p[k] * std::log(p[k]);
    }
    EXPECT_EQ(Bits(EntropySum(p, n)), Bits(ent));
    EXPECT_EQ(Bits(d.Entropy()), Bits(ent));

    for (double x : {-5.0, v[0], 0.25, v[n - 1], 10.0}) {
      double below = 0.0;
      for (int k = 0; k < n && v[k] < x; ++k) below += p[k];
      EXPECT_EQ(Bits(MassBelow(v, p, n, x)), Bits(below));
      EXPECT_EQ(Bits(d.CdfBelow(x)), Bits(below));
      double at_or_below = 0.0;
      for (int k = 0; k < n && v[k] <= x; ++k) at_or_below += p[k];
      EXPECT_EQ(Bits(MassAtOrBelow(v, p, n, x)), Bits(at_or_below));
      EXPECT_EQ(Bits(d.CdfAtOrBelow(x)), Bits(at_or_below));
    }

    // The transform reductions, driven by DispatchQualityTransform's
    // closures exactly as the claim evaluator drives them, against naive
    // per-atom loops over QualityTransform.  `d2` plays the cleaned side
    // of the cross product.  Even trials shift by an integer, so with the
    // integer supports and reference duplicity's Delta >= 0 boundary is
    // hit exactly; odd trials shift by a fraction.
    DiscreteDistribution d2 = RandomDist(rng);
    const double* v2 = d2.values().data();
    const double* p2 = d2.probs().data();
    const int n2 = d2.support_size();
    const double shift = trial % 2 == 0 ? rng.UniformInt(-2, 2)
                                        : rng.Uniform(-2.0, 2.0);
    const double reference = rng.UniformInt(-3, 3);
    const double sensibility = rng.Uniform(0.1, 2.0);
    for (QualityMeasure measure : {QualityMeasure::kBias,
                                   QualityMeasure::kDuplicity,
                                   QualityMeasure::kFragility}) {
      for (StrengthDirection direction :
           {StrengthDirection::kHigherIsStronger,
            StrengthDirection::kLowerIsStronger}) {
        SCOPED_TRACE("measure=" + std::to_string(static_cast<int>(measure)) +
                     " dir=" + std::to_string(static_cast<int>(direction)));
        auto naive_g = [&](double q) {
          return QualityTransform(measure, q, reference, sensibility,
                                  direction);
        };
        double m1 = 0.0, m2 = 0.0, sum = 0.0;
        for (int k = 0; k < n; ++k) {
          double gv = naive_g(shift + v[k]);
          m1 += p[k] * gv;
          m2 += p[k] * gv * gv;
          sum += p[k] * naive_g(shift + v[k]);
        }
        double cross = 0.0;
        for (int c = 0; c < n2; ++c) {
          for (int k = 0; k < n; ++k) {
            cross += p2[c] * p[k] * naive_g(shift + v2[c] + v[k]);
          }
        }
        DispatchQualityTransform(
            measure, direction, reference, [&](auto make_g) {
              auto g = make_g(sensibility);
              double k1 = 0.0, k2 = 0.0;
              TransformedMoments(v, p, n, shift, g, &k1, &k2);
              EXPECT_EQ(Bits(k1), Bits(m1));
              EXPECT_EQ(Bits(k2), Bits(m2));
              EXPECT_EQ(Bits(TransformedSum(v, p, n, shift, g)), Bits(sum));
              EXPECT_EQ(Bits(CrossTransformedSum(v2, p2, n2, v, p, n, shift,
                                                 g)),
                        Bits(cross));
            });
      }
    }
  }
}

// --- Claim evaluator kernel counters --------------------------------------

TEST(KernelEvaluatorTest, CountersTrackPlanesWork) {
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 7, {.size = 24});
  PerturbationSet context = SlidingWindowSumPerturbations(24, 4, 0, 1.5);
  ClaimEvEvaluator evaluator(&problem, &context, QualityMeasure::kDuplicity,
                             120.0);
  evaluator.EV({1, 5, 9, 13});
  EXPECT_GT(evaluator.kernel_counters().calls, 0);
  EXPECT_GT(evaluator.kernel_counters().atoms, 0);
}

// --- Guard rails ------------------------------------------------------------

TEST(KernelConvolveDeathTest, ExpansionBeyondAtomCapAborts) {
  // Two dense terms whose product support would pass 2^24: the overflow
  // guard must fire before the expansion allocates.
  int n = 5000;
  std::vector<double> values(n), probs(n);
  for (int k = 0; k < n; ++k) {
    values[k] = k;
    probs[k] = 1.0;
  }
  DiscreteDistribution wide(values, probs);
  std::vector<FlatTerm> terms(
      2, FlatTerm{wide.values().data(), wide.probs().data(),
                  wide.support_size(), 1.0});
  ConvolutionWorkspace ws;
  EXPECT_DEATH(ConvolveSumFlat(terms.data(), 2, ws, nullptr),
               "kMaxConvolutionAtoms");
}

#ifndef NDEBUG
TEST(KernelBoundsDeathTest, AtomAccessorsBoundsCheckedInDebugBuilds) {
  DiscreteDistribution coin({0.0, 1.0}, {0.5, 0.5});
  EXPECT_DEATH(coin.value(2), "CHECK failed");
  EXPECT_DEATH(coin.prob(-1), "CHECK failed");
}
#endif

}  // namespace
}  // namespace factcheck
