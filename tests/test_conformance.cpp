// Statistical conformance suite: the paper's accuracy (Theorem 6.11) and
// coverage (Theorem 6.15) guarantees, checked against exact ground truth
// (eval/ground_truth) on seeded heavy-tailed Zipf traces (trace_gen), at
// several (eps, theta, V) operating points, for every lattice mode: the
// randomized ones (RHHH at V = H and V = 10H, Sampled-MST) and the
// deterministic baseline (MST). The trie-based comparators (Partial/Full
// Ancestry) run the same operating points in test_baselines.cpp.
//
// What the theorems promise once the stream passes the convergence bound
// psi (Theorem 6.17):
//   * accuracy: each returned candidate's estimate is within eps * N of the
//     exact frequency, w.p. >= 1 - delta  (deterministic algorithms: always);
//   * coverage: each prefix whose exact conditioned frequency w.r.t. the
//     returned set reaches theta * N is returned, w.p. >= 1 - delta
//     (deterministic algorithms: always).
//
// So the deterministic rows assert *zero* errors, and the randomized rows
// assert the empirical violation ratio stays within delta plus a small
// finite-sample margin. Seeds are fixed: this runs as a normal ctest, no
// flakiness budget needed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "conformance_points.hpp"
#include "core/monitor.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "hhh/lattice_hhh.hpp"
#include "obs/health.hpp"
#include "trace/trace_gen.hpp"

namespace rhhh {
namespace {

using conformance::kPoints;
using conformance::OperatingPoint;

/// Finite-sample slack on top of delta for the randomized ratio checks:
/// with tens of candidates per point, one unlucky candidate moves the
/// empirical ratio by a few percent.
constexpr double kMargin = 0.08;

class Conformance : public ::testing::TestWithParam<int> {};

TEST_P(Conformance, TheoremBoundsHoldAtOperatingPoint) {
  const OperatingPoint& pt = kPoints[GetParam()];
  SCOPED_TRACE(pt.label);
  const Hierarchy h = make_hierarchy(pt.hierarchy);

  // Seeded Zipf trace mapped through the hierarchy, plus exact truth.
  TraceConfig tc = trace_preset(pt.trace);
  tc.seed = pt.seed;
  TraceGenerator gen(tc);
  ExactHhh truth(h);
  std::vector<Key128> keys;
  keys.reserve(pt.n);
  for (std::uint64_t i = 0; i < pt.n; ++i) {
    keys.push_back(h.key_of(gen.next()));
    truth.add(keys.back());
  }

  MonitorConfig base;
  base.hierarchy = pt.hierarchy;
  base.eps = pt.eps;
  base.delta = pt.delta;
  base.V = pt.V;
  base.seed = pt.seed;

  const AlgorithmKind roster[] = {pt.randomized, AlgorithmKind::kMst};
  for (const AlgorithmKind kind : roster) {
    MonitorConfig cfg = base;
    cfg.algorithm = kind;
    if (kind == AlgorithmKind::kMst) {
      cfg.V = 0;  // V is a randomized-lattice parameter only
    }
    const std::unique_ptr<LatticeHhh> alg = make_algorithm(h, cfg);
    SCOPED_TRACE(std::string(alg->name()));

    for (const Key128& k : keys) alg->update(k);
    ASSERT_EQ(alg->stream_length(), pt.n);
    const bool randomized = alg->psi() > 0.0;
    if (randomized) {
      // The theorems only apply past the convergence bound; the operating
      // points are sized so every stream comfortably clears it.
      ASSERT_GT(static_cast<double>(pt.n), alg->psi())
          << "operating point mis-sized: N below psi";
    }

    const HhhSet out = alg->output(pt.theta);
    ASSERT_GT(out.size(), 0u);

    // Theorem 6.11 (accuracy): |f - f_est| <= eps * N.
    const AccuracyReport acc = accuracy_errors(truth, out, pt.eps);
    // Theorem 6.15 (coverage): no heavy conditioned prefix is missed.
    const CoverageReport cov = coverage_errors(truth, out, pt.theta);
    if (randomized) {
      EXPECT_LE(acc.ratio(), pt.delta + kMargin)
          << acc.errors << "/" << acc.candidates << " accuracy violations";
      EXPECT_LE(cov.ratio(), pt.delta + kMargin)
          << cov.misses << "/" << cov.candidates << " coverage misses";
    } else {
      EXPECT_EQ(acc.errors, 0u) << "deterministic algorithm broke the "
                                   "eps*N accuracy bound";
      EXPECT_EQ(cov.misses, 0u) << "deterministic algorithm missed a heavy "
                                   "conditioned prefix";
    }

    // The theorem-shaped per-candidate check: the estimate sits within
    // eps_a * N plus the 2 Z sqrt(NV) sampling slack of Theorem 6.11 (a
    // *tighter* additive bound than eps * N past psi).
    std::vector<Prefix> prefixes;
    prefixes.reserve(out.size());
    for (const HhhCandidate& c : out) prefixes.push_back(c.prefix);
    const std::vector<std::uint64_t> exact = truth.frequencies(prefixes);
    const double bound =
        alg->eps_a() * static_cast<double>(pt.n) + alg->correction();
    std::size_t violations = 0;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      const double err = std::abs(out[i].f_est - static_cast<double>(exact[i]));
      if (err > bound) ++violations;
    }
    if (randomized) {
      EXPECT_LE(static_cast<double>(violations) /
                    static_cast<double>(prefixes.size()),
                pt.delta + kMargin)
          << violations << "/" << prefixes.size()
          << " exceed eps_a*N + 2Z*sqrt(NV)";
    } else {
      EXPECT_EQ(violations, 0u);
    }
  }
}

/// Health-layer tie-in: the per-window AccuracyCertificate's self-reported
/// additive bound -- (eps_empirical + sampling_slack) * N, recomputed from
/// nothing but the backends' live min-counts -- must dominate the max
/// estimation error actually observed against exact ground truth, at every
/// operating point, for both the randomized mode and the deterministic MST
/// baseline (where the sampling slack is zero and dominance is
/// unconditional). Seeds are fixed, so the randomized rows are exact
/// reruns, not a flakiness budget.
TEST_P(Conformance, CertificateBoundDominatesObservedError) {
  const OperatingPoint& pt = kPoints[GetParam()];
  SCOPED_TRACE(pt.label);
  const Hierarchy h = make_hierarchy(pt.hierarchy);

  TraceConfig tc = trace_preset(pt.trace);
  tc.seed = pt.seed;
  TraceGenerator gen(tc);
  ExactHhh truth(h);
  std::vector<Key128> keys;
  keys.reserve(pt.n);
  for (std::uint64_t i = 0; i < pt.n; ++i) {
    keys.push_back(h.key_of(gen.next()));
    truth.add(keys.back());
  }

  MonitorConfig base;
  base.hierarchy = pt.hierarchy;
  base.eps = pt.eps;
  base.delta = pt.delta;
  base.V = pt.V;
  base.seed = pt.seed;

  const AlgorithmKind roster[] = {pt.randomized, AlgorithmKind::kMst};
  for (const AlgorithmKind kind : roster) {
    MonitorConfig cfg = base;
    cfg.algorithm = kind;
    if (kind == AlgorithmKind::kMst) cfg.V = 0;
    const std::unique_ptr<LatticeHhh> alg = make_algorithm(h, cfg);
    SCOPED_TRACE(std::string(alg->name()));
    const LatticeHhh& lattice = *alg;

    for (const Key128& k : keys) alg->update(k);
    const obs::AccuracyCertificate cert =
        obs::certify_window({&lattice}, /*epoch=*/1, /*drops=*/0,
                            /*stamped_ns=*/0);
    EXPECT_EQ(cert.stream_length, pt.n);
    EXPECT_EQ(cert.epoch, 1u);
    EXPECT_TRUE(cert.converged) << "operating point mis-sized: N below psi";
    EXPECT_DOUBLE_EQ(cert.eps_configured, lattice.eps_a());
    if (kind == AlgorithmKind::kMst) {
      EXPECT_EQ(cert.sampling_slack, 0.0) << "MST has no sampling variance";
    } else {
      EXPECT_GT(cert.sampling_slack, 0.0);
    }

    // The certified bound vs the worst observed error over the output set.
    const HhhSet out = alg->output(pt.theta);
    ASSERT_GT(out.size(), 0u);
    std::vector<Prefix> prefixes;
    prefixes.reserve(out.size());
    for (const HhhCandidate& c : out) prefixes.push_back(c.prefix);
    const std::vector<std::uint64_t> exact = truth.frequencies(prefixes);
    double max_err = 0.0;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      max_err = std::max(
          max_err, std::abs(out[i].f_est - static_cast<double>(exact[i])));
    }
    const double certified = (cert.eps_empirical + cert.sampling_slack) *
                             static_cast<double>(cert.stream_length);
    EXPECT_GE(certified, max_err)
        << "certificate claims a tighter bound than reality: certified "
        << certified << " < observed max error " << max_err;

    // The empirical eps is itself recomputable from the public probes:
    // max over nodes of scale * min-count, over N.
    const std::vector<BackendProbe> probes = lattice.health_probes();
    ASSERT_EQ(probes.size(), lattice.H());
    double expect_eps = 0.0;
    for (const BackendProbe& p : probes) {
      expect_eps = std::max(expect_eps,
                            lattice.scale() * static_cast<double>(p.min_count) /
                                static_cast<double>(pt.n));
    }
    EXPECT_DOUBLE_EQ(cert.eps_empirical, expect_eps);
  }

  // Cross-shard fold: splitting the same stream over two shards and
  // certifying the pair must account for every node's untracked mass by
  // ADDING min-counts across shards (the merged structure's bound), with N
  // the drop-folded sum.
  MonitorConfig cfg = base;
  cfg.algorithm = pt.randomized;
  const std::unique_ptr<LatticeHhh> a = make_algorithm(h, cfg);
  cfg.seed = pt.seed + 1;
  const std::unique_ptr<LatticeHhh> b = make_algorithm(h, cfg);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    (i % 2 == 0 ? a : b)->update(keys[i]);
  }
  const LatticeHhh& sa = *a;
  const LatticeHhh& sb = *b;
  const std::uint64_t drops = 1000;
  const obs::AccuracyCertificate pair =
      obs::certify_window({&sa, &sb}, /*epoch=*/2, drops, /*stamped_ns=*/0);
  EXPECT_EQ(pair.stream_length, pt.n + drops);
  EXPECT_EQ(pair.drops, drops);
  const std::vector<BackendProbe> pa = sa.health_probes();
  const std::vector<BackendProbe> pb = sb.health_probes();
  ASSERT_EQ(pa.size(), pb.size());
  double expect_eps = 0.0;
  for (std::size_t d = 0; d < pa.size(); ++d) {
    const double untracked =
        sa.scale() * static_cast<double>(pa[d].min_count) +
        sb.scale() * static_cast<double>(pb[d].min_count);
    expect_eps =
        std::max(expect_eps, untracked / static_cast<double>(pt.n + drops));
  }
  EXPECT_DOUBLE_EQ(pair.eps_empirical, expect_eps);
}

INSTANTIATE_TEST_SUITE_P(OperatingPoints, Conformance,
                         ::testing::Range(0, static_cast<int>(std::size(kPoints))),
                         [](const auto& info) {
                           return std::string(kPoints[info.param].label);
                         });

}  // namespace
}  // namespace rhhh
