// Figure 2: accuracy error ratio vs stream length (2D-bytes hierarchy,
// four traces). An accuracy error is a returned HHH candidate whose
// frequency estimate is off by more than eps*N (paper Section 4.1).
//
// Expected shape (paper): RHHH and 10-RHHH start with errors that vanish as
// the stream approaches the convergence bound psi; the deterministic
// algorithms (MST, Partial/Full Ancestry) sit at zero throughout.
#include <cstdio>
#include <vector>

#include "common/bench_common.hpp"

using namespace rhhh;
using namespace rhhh::bench;

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  print_figure_header("Figure 2", "Accuracy error ratio vs stream length, 2D bytes",
                      args);

  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  std::vector<std::uint64_t> checkpoints;
  for (const double c : {0.2e6, 0.5e6, 1.0e6, 2.0e6, 4.0e6}) {
    checkpoints.push_back(static_cast<std::uint64_t>(c * args.scale));
  }
  const std::uint64_t total = checkpoints.back();

  for (const std::string& trace : trace_preset_names()) {
    const auto& keys = trace_keys(h, trace, total);

    auto roster = paper_roster(h, args.eps, args.delta, args.seed);
    std::printf("\n-- %s --\n", trace.c_str());
    std::printf("psi(RHHH)=%.3g psi(10-RHHH)=%.3g\n", roster[0]->psi(),
                roster[1]->psi());
    std::vector<std::string> head = {"algorithm \\ N"};
    for (const auto cp : checkpoints) head.push_back(fmt(double(cp)));
    print_row(head);

    ExactHhh truth(h);
    std::size_t fed_truth = 0;

    // Feed all algorithms in lockstep so each checkpoint shares ground truth.
    std::vector<std::vector<double>> ratios(roster.size());
    std::size_t fed = 0;
    for (const auto cp : checkpoints) {
      for (; fed < cp; ++fed) {
        for (auto& alg : roster) alg->update(keys[fed]);
      }
      for (; fed_truth < cp; ++fed_truth) truth.add(keys[fed_truth]);
      for (std::size_t a = 0; a < roster.size(); ++a) {
        const HhhSet out = roster[a]->output(args.theta);
        const AccuracyReport rep = accuracy_errors(truth, out, args.eps);
        ratios[a].push_back(rep.ratio());
      }
    }
    for (std::size_t a = 0; a < roster.size(); ++a) {
      std::vector<std::string> row = {std::string(roster[a]->name())};
      for (const double r : ratios[a]) row.push_back(fmt(r));
      print_row(row);
    }
  }
  std::printf("\n(expected shape: randomized rows decay toward 0 as N -> psi;\n"
              " deterministic rows are 0 everywhere)\n");
  return 0;
}
