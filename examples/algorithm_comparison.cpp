// Side-by-side comparison of every HHH algorithm the paper evaluates on the
// same stream -- the library's lattice modes and the Partial/Full Ancestry
// tries from baselines/: runtime, returned set, and agreement with the
// exact offline ground truth -- a miniature of the paper's evaluation
// section in one program.
//
// Run:  ./algorithm_comparison [trace] [num_packets]
//       trace in {chicago15, chicago16, sanjose13, sanjose14}
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "trace/trace_gen.hpp"
#include "trie_hhh.hpp"

namespace {

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace = argc > 1 ? argv[1] : "chicago16";
  const std::size_t n = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4'000'000;
  const double eps = 0.01;  // keeps psi(RHHH) below the default N
  const double delta = 0.01;
  const double theta = 0.03;

  const rhhh::Hierarchy h = rhhh::Hierarchy::ipv4_2d(rhhh::Granularity::kByte);
  std::printf("trace=%s  N=%zu  hierarchy=%s (H=%zu)  eps=%g  theta=%g\n\n",
              trace.c_str(), n, h.name().c_str(), h.size(), eps, theta);

  // Pre-generate the stream so every algorithm sees identical input.
  rhhh::TraceGenerator gen(rhhh::trace_preset(trace));
  std::vector<rhhh::Key128> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(h.key_of(gen.next()));

  rhhh::ExactHhh truth(h);
  for (const rhhh::Key128& k : keys) truth.add(k);
  const rhhh::HhhSet exact = truth.compute(theta);
  std::printf("exact HHH set (|P|=%zu):\n", exact.size());
  for (const rhhh::HhhCandidate& c : exact) {
    std::printf("  %-34s f=%.0f (%.2f%%)\n", h.format(c.prefix).c_str(), c.f_est,
                100.0 * c.f_est / static_cast<double>(n));
  }

  std::vector<std::unique_ptr<rhhh::HhhContender>> roster;
  for (const rhhh::AlgorithmKind kind :
       {rhhh::AlgorithmKind::kRhhh, rhhh::AlgorithmKind::kTenRhhh,
        rhhh::AlgorithmKind::kMst, rhhh::AlgorithmKind::kSampledMst}) {
    rhhh::MonitorConfig cfg;
    cfg.algorithm = kind;
    cfg.eps = eps;
    cfg.delta = delta;
    const auto [mode, lp] = rhhh::lattice_config_of(h, cfg);
    roster.push_back(std::make_unique<rhhh::LatticeContender>(h, mode, lp));
  }
  roster.push_back(std::make_unique<rhhh::TrieHhh>(h, rhhh::AncestryMode::kPartial, eps));
  roster.push_back(std::make_unique<rhhh::TrieHhh>(h, rhhh::AncestryMode::kFull, eps));

  std::printf("\n%-18s %12s %10s %10s %10s %10s\n", "algorithm", "Mpkt/s",
              "returned", "FP-ratio", "recall", "psi");
  for (const auto& alg : roster) {
    const double t0 = now_sec();
    for (const rhhh::Key128& k : keys) alg->update(k);
    const double mpps = static_cast<double>(n) / (now_sec() - t0) / 1e6;
    const rhhh::HhhSet out = alg->output(theta);
    const rhhh::FalsePositiveReport rep = rhhh::false_positives(exact, out);
    std::printf("%-18s %12.2f %10zu %10.3f %10.3f %10.3g\n",
                std::string(alg->name()).c_str(), mpps, out.size(), rep.ratio(),
                rep.recall(), alg->psi());
  }

  std::printf(
      "\nReading guide: all algorithms should reach recall ~1.0; the\n"
      "randomized ones trade extra false positives below psi for update\n"
      "speed -- the paper's core trade-off.\n");
  return 0;
}
