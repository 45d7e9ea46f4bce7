// Shared pieces of the end-to-end benchmark program: options, the generated
// capture (TraceGenerator -> PcapWriter -> PcapReader -> frame arena), the
// span tracer, the metric/result ledger and small statistics helpers.
//
// Every timing here is taken from outside the library, around calls into
// its public functions, with std::chrono::steady_clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hhh/hhh_types.hpp"
#include "hierarchy/hierarchy.hpp"
#include "net/packet.hpp"

namespace bench {

inline constexpr std::size_t kFrameLen = 64;  ///< minimum Ethernet frame
inline constexpr std::size_t kBurst = 256;    ///< rx burst, frames
inline constexpr int kSetupReps = 3;          ///< setups per run (median)
inline constexpr std::uint32_t kWorkers = 2;  ///< engine worker shards (W)

/// Flood planted in the second half of the detect capture.
inline constexpr rhhh::Ipv4 kFloodSrcNet = (66u << 24) | (66u << 16);
inline constexpr rhhh::Ipv4 kVictim = (203u << 24) | (113u << 8) | 9u;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_dir;  ///< empty: tracing off
  bool smoke = false;
  std::string work_dir;   ///< temporary pcap files and archives
  [[nodiscard]] bool traced() const noexcept { return !trace_dir.empty(); }
};

/// Sizes of one run. smoke() is the same workload at about 1/50 scale.
struct Scale {
  std::size_t capture = std::size_t{2} << 20;  ///< frames in the capture
  std::size_t detect_capture = std::size_t{4} << 20;  ///< the flooded variant
  std::size_t forensics_windows = 64;
  std::size_t queries_min = 100;
  double detect_pps = 14.88e6;  ///< 10GbE line rate of 64-byte frames
  /// Thresholds recall is scored at. output() of an unconverged lattice
  /// pads every conditioned count with a sampling slack (~0.08 N for one
  /// 2 Mi-packet 10-RHHH window, ~0.03 N for eight merged); below it, it
  /// admits ~40k prefixes and takes ~4 s. These stay above it. At smoke
  /// scale the slack exceeds any useful threshold and recall means nothing.
  double wire_recall_theta = 0.1;
  double forensics_recall_theta = 0.05;
  [[nodiscard]] static Scale of(const Options& o);
};

/// The capture as a NIC rx ring stand-in: `frames` 64-byte frames back to
/// back in one arena, read back from a pcap file the setup wrote.
struct Capture {
  std::vector<std::uint8_t> arena;
  std::size_t frames = 0;
  double pcap_read_ns_per_pkt = 0.0;
  [[nodiscard]] const std::uint8_t* frame(std::size_t i) const noexcept {
    return arena.data() + i * kFrameLen;
  }
};

/// Generates trace_preset("chicago16") with TraceConfig::seed = seed,
/// forces every record to 64 bytes, optionally replaces 20% of the second
/// half with the flood, writes it with PcapWriter into `dir`, reads it back
/// with PcapReader into the arena and checks every read-back record equals
/// the generated one (throws std::runtime_error otherwise).
[[nodiscard]] Capture make_capture(std::uint64_t seed, std::size_t frames, bool flood,
                                   const std::string& dir);

/// Mean over `sketches` of the share of the exact HHH set at `theta`
/// (ExactHhh over one capture pass) that each sketch's output(theta) holds.
[[nodiscard]] double hhh_recall(const Capture& cap,
                                const std::vector<const rhhh::HhhAlgorithm*>& sketches,
                                double theta);

/// True when two HHH sets hold the same candidates in the same order.
[[nodiscard]] bool same_hhh(const rhhh::HhhSet& a, const rhhh::HhhSet& b);

// -- tracing ----------------------------------------------------------------

/// In-memory span recorder writing Chrome trace-event JSON. Each thread
/// appends to its own buffer (a deque: growing it never copies spans, which
/// would stall a paced generator); buffers are read only after the threads
/// that wrote them are joined. Span names are string literals.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t tid = 0;
  };

  /// RAII span around a call; nests under the thread's open span. A no-op
  /// when `t` is null.
  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    const char* name_;
    std::int64_t start_ = 0;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
  };

  /// Records a finished span as a child of `parent` (0: a root span).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t parent = 0);
  /// Reserves a span id, so children can be recorded before their parent.
  std::uint64_t reserve_id();
  void record_with_id(std::uint64_t id, const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t parent);

  void write_json(const std::string& path) const;
  [[nodiscard]] std::size_t spans() const;

 private:
  std::deque<Span>& local();
  mutable std::mutex mu_;  ///< guards buffers_ and next_tid_
  std::vector<std::unique_ptr<std::deque<Span>>> buffers_;
  std::uint32_t next_tid_ = 0;
  std::int64_t origin_ns_ = now_ns();
  std::uint64_t next_id_ = 1;  ///< guarded by mu_
};

// -- results ----------------------------------------------------------------

/// Metrics, operation counts and correctness checks of one run.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> e2e;     ///< end-to-end (tracing off)
  std::map<std::string, Metric> layers;  ///< per-layer (traced run)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double v, const char* unit) { e2e[name] = {v, unit}; }
  void layer(const std::string& name, double v, const char* unit) {
    layers[name] = {v, unit};
  }
  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// -- thread placement -------------------------------------------------------

/// CPU sets for the benchmark's threads. The generator gets the first CPU
/// of the process's mask to itself, and the control thread (detect's
/// detection loop) the second; engine threads start from whichever thread
/// calls HhhEngine::start() and inherit its set.
enum class Cpus : std::uint8_t {
  kAllButGenerator,            ///< default for the main thread
  kAllButGeneratorAndControl,  ///< engine threads beside a busy control thread
  kControl,
  kGenerator,
};
/// Restricts the calling thread, and threads it starts afterwards, to `c`,
/// with every role moved `shift` CPUs along the process's mask. Best
/// effort: a no-op where the mask has too few CPUs to separate roles.
void run_on(Cpus c, std::size_t shift = 0);
/// The host slows each CPU in episodes of its own, seconds long. A timed
/// phase is therefore split into this many parts, each on a fresh engine
/// with the roles shifted one CPU further, and their samples pooled.
inline constexpr int kPlacements = 4;
/// Pins the calling thread to CPU `i` (mod their count) of the process's
/// mask. The host slows each CPU in episodes of its own, so single-threaded
/// work that takes several samples spreads them over the CPUs this way.
void run_on_cpu(std::size_t i);
/// Ids of this process's threads, ascending. Linux hands them out in
/// creation order.
[[nodiscard]] std::vector<int> thread_ids();
/// Pins the first `pinned` threads started since `before` was taken one per
/// CPU of the calling thread's mask, and moves the other new threads, and
/// the calling thread itself, to the CPUs of that mask left over, if any.
/// Best effort, like run_on(). Left to itself, the scheduler starts every
/// engine thread on its creator's CPU and takes seconds to spread two busy
/// workers apart.
void place_new_threads(const std::vector<int>& before, std::size_t pinned);

// -- statistics -------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}
/// Interference on a shared virtual host only ever slows work down, and it
/// comes in episodes of seconds that can cut a core's speed by a third. A
/// run's timing is therefore reported from its least disturbed stretches:
/// the samples, in time order, are cut into segments of kSegment, each
/// segment's median is taken, and the result is the kQuietQuantile of those
/// medians on the good side -- the 10th percentile of times, the 90th of
/// rates.
enum class Better : std::uint8_t { kLower, kHigher };
inline constexpr std::size_t kSegment = 8;
inline constexpr double kQuietQuantile = 0.1;
[[nodiscard]] double quiet_median(const std::vector<double>& samples, Better better);
/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

// -- workloads --------------------------------------------------------------

/// Workload entry points. Each sets itself up kSetupReps times (setup_s is
/// the median), measures for o.seconds, checks its outputs and fills `r`;
/// with a tracer it also fills the per-layer metrics.
void run_wire(const Options& o, bool ten_rhhh, Result& r, Tracer* tr);
void run_detect(const Options& o, Result& r, Tracer* tr);
void run_forensics(const Options& o, Result& r, Tracer* tr);

/// The operating point the single-threaded stage ledger times.
struct LedgerPoint {
  bool ten_rhhh = true;
  double eps = 1e-3;
  std::size_t window = 0;  ///< packets per window
  std::size_t history = 1;  ///< sealed windows per ring (K)
};

/// Times each layer alone on one thread at `p` over the capture, then all
/// of them composed over one window, and fills the ledger.* and the
/// ledger-sourced per-layer metrics. `dir` holds the archive it writes.
void run_ledger(const Capture& cap, const LedgerPoint& p, const std::string& dir,
                Result& r, Tracer* tr);

}  // namespace bench
