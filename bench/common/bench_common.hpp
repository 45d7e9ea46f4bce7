// Shared benchmark harness: argument parsing, trace/key caching, the
// standard algorithm roster the paper compares (RHHH, 10-RHHH, MST,
// Partial/Full Ancestry), timing, and paper-style table printing with 95%
// Student-t confidence intervals (the paper's methodology: Section 4).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "hhh/lattice_hhh.hpp"
#include "stats/summary.hpp"
#include "trace/trace_gen.hpp"
#include "trie_hhh.hpp"

namespace rhhh::bench {

/// Common CLI arguments. Every bench binary runs with sensible defaults when
/// invoked with no arguments; --scale multiplies stream lengths to approach
/// paper scale (--scale 100 on the figure benches roughly reproduces the
/// paper's 10^9-packet setting, given time).
struct Args {
  double scale = 1.0;   ///< multiplies default stream lengths
  int runs = 3;         ///< repetitions per data point (paper uses 5)
  double eps = 0.01;    ///< accuracy parameter (paper: 0.001 at 10^9 packets)
  double delta = 0.001; ///< confidence parameter
  double theta = 0.02;  ///< HHH threshold (paper: 0.01..0.1)
  std::uint64_t seed = 1;
  std::string json;     ///< if non-empty, mirror printed tables to this file

  static Args parse(int argc, char** argv);
};

/// Starts mirroring every print_figure_header()/print_row() call into an
/// in-memory document written to `path` as JSON when the process exits (or
/// when json_flush() is called). Args::parse wires this up for `--json PATH`;
/// the run_all driver uses it to collect BENCH_<name>.json baselines.
void json_begin(const std::string& path, const std::string& bench, const Args& args);

/// Writes the mirrored document now (idempotent; also runs atexit).
void json_flush();

/// Monotonic seconds.
[[nodiscard]] double now_sec();

/// Fully-specified keys of a preset trace, mapped through `h` (cached per
/// process so several panels over the same trace generate once).
[[nodiscard]] const std::vector<Key128>& trace_keys(const Hierarchy& h,
                                                    const std::string& preset,
                                                    std::size_t n);

/// Raw packets of a preset trace (cached).
[[nodiscard]] const std::vector<PacketRecord>& trace_packets(const std::string& preset,
                                                             std::size_t n);

/// The paper's evaluated algorithm roster, in its plotting order: RHHH,
/// 10-RHHH, MST, Partial Ancestry, Full Ancestry.
[[nodiscard]] std::vector<std::unique_ptr<HhhContender>> paper_roster(
    const Hierarchy& h, double eps, double delta, std::uint64_t seed);

/// Prints "## <title>" plus a parameter line, mirroring figure captions.
void print_figure_header(const std::string& figure, const std::string& caption,
                         const Args& args);

/// One formatted cell "mean +-half" from repeated observations.
[[nodiscard]] std::string ci_cell(const RunningStats& stats);

/// Simple fixed-width row printer: first column 24 chars, rest 14.
void print_row(const std::vector<std::string>& cells);

/// Formats a double compactly (3 significant digits, engineering-friendly).
[[nodiscard]] std::string fmt(double v);

/// "x<suffix>" ratio cell, append-built: the natural `"x" + suffix` trips
/// GCC 12's -Wrestrict false positive (PR105329) at -O3.
[[nodiscard]] std::string xcell(const std::string& suffix);

}  // namespace rhhh::bench
