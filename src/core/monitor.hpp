// HhhMonitor: the library's front door. Picks a hierarchy and a lattice
// update discipline from a declarative config, consumes packets, and
// answers HHH queries -- the API the examples and downstream users work
// against.
//
//   MonitorConfig cfg;
//   cfg.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
//   cfg.algorithm = AlgorithmKind::kRhhh;
//   HhhMonitor mon(cfg);
//   for (const PacketRecord& p : trace) mon.update(p);
//   for (const HhhCandidate& c : mon.query(0.01)) ...
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/shard_router.hpp"
#include "hhh/lattice_hhh.hpp"

namespace rhhh {

namespace obs {
class MetricsRegistry;  // obs/metrics.hpp (forward-declared: core/ stays
                        // free of the telemetry layer's <mutex> includes)
}  // namespace obs

enum class HierarchyKind : std::uint8_t {
  kIpv4OneDimBytes,   // H = 5
  kIpv4OneDimBits,    // H = 33
  kIpv4TwoDimBytes,   // H = 25
  kIpv4TwoDimNibbles, // H = 81
  kIpv6Bytes,         // H = 17
  kIpv6Nibbles,       // H = 33
};

enum class AlgorithmKind : std::uint8_t {
  kRhhh,         // the paper's contribution, V = H unless overridden
  kTenRhhh,      // V = 10H ("10-RHHH")
  kMst,          // deterministic baseline [35]
  kSampledMst,   // Section 1 strawman
};

[[nodiscard]] std::string_view to_string(HierarchyKind k) noexcept;
[[nodiscard]] std::string_view to_string(AlgorithmKind k) noexcept;

struct MonitorConfig {
  HierarchyKind hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  AlgorithmKind algorithm = AlgorithmKind::kRhhh;
  double eps = 1e-3;
  double delta = 1e-3;
  std::uint32_t V = 0;  ///< explicit V for the randomized lattice modes
  std::uint32_t r = 1;  ///< RHHH multi-update factor (Corollary 6.8)
  std::uint64_t seed = 1;
};

/// Builds the hierarchy for a kind (factory shared with benches/tests).
[[nodiscard]] Hierarchy make_hierarchy(HierarchyKind k);

/// Builds a standalone lattice over an existing hierarchy.
[[nodiscard]] std::unique_ptr<LatticeHhh> make_algorithm(const Hierarchy& h,
                                                         const MonitorConfig& cfg);

/// Resolves a MonitorConfig to a lattice mode plus LatticeParams, with
/// kTenRhhh's V = 10H applied. Shared by make_algorithm and the engine
/// factory.
[[nodiscard]] std::pair<LatticeMode, LatticeParams> lattice_config_of(
    const Hierarchy& h, const MonitorConfig& cfg);

// -- sharded multi-core ingest (src/engine/) ---------------------------------

/// What a full producer→worker ring does with the overflow.
enum class OverflowPolicy : std::uint8_t {
  kBlock,     ///< spin until space frees up: lossless, counted as backpressure
  kDropTail,  ///< drop the unpushable batch tail: the saturated-port semantics
};

[[nodiscard]] std::string_view to_string(OverflowPolicy p) noexcept;

/// How eagerly the segment writer pushes appended windows to stable
/// storage. Every mode still fflush()es per record (a concurrent reader's
/// scan path only ever sees completed frames); fsync is about what survives
/// power loss, not about torn frames.
enum class FsyncMode : std::uint8_t {
  kNone,       ///< OS page cache only: fastest; a crash may lose recent windows
  kPerRoll,    ///< fsync when a segment seals (roll/close): bounded loss window
  kPerRecord,  ///< fsync after every appended window: maximum durability
};

[[nodiscard]] std::string_view to_string(FsyncMode m) noexcept;

/// Durable window store settings (src/store/): where and how sealed windows
/// are persisted. Used by the engine's background archiver (see
/// EngineConfig::archive) and by WindowArchive::open_write directly. An
/// empty `dir` disables archiving entirely.
struct ArchiveConfig {
  std::string dir;  ///< store directory (created on demand); empty = off
  /// Roll to a new segment file once the current one reaches this many
  /// bytes (records are never split across segments). 0 = never roll by
  /// size (one segment per engine run).
  std::uint64_t segment_bytes = 8ull << 20;
  /// >0: also roll once the current segment's first window is this old
  /// (wall-clock seconds) -- bounds how much history one torn segment can
  /// cost after a crash.
  std::uint32_t segment_seconds = 0;
  /// >0: after each roll, delete the oldest sealed segments while the
  /// store exceeds this many bytes (retention-by-bytes compaction; the
  /// segment being written is never deleted). 0 = keep everything.
  std::uint64_t retain_bytes = 0;
  /// Bounded depth of the archiver queue. A full queue drops the sealed
  /// window (counted in EngineStats::archive_queue_drops) rather than ever
  /// blocking on I/O. A queued window shares the engine's sealed shard
  /// lattices, whose ring slots are reused history_depth cuts later: the
  /// first shard to reuse one waits for or runs the window's merge first.
  std::size_t queue_windows = 8;
  /// Durability cadence for the segment writer (all I/O stays on the
  /// archiver thread, so even kPerRecord never stalls a rotation).
  FsyncMode fsync_mode = FsyncMode::kNone;

  // -- telemetry (src/obs/) -------------------------------------------------
  /// When true, a writable archive registers store metrics (append/fsync/
  /// compaction latency, bytes written, segment gauges) against `metrics`
  /// (the process-global registry when null) and records roll/compaction
  /// events into the global TraceRing. Read-only archives never register.
  bool telemetry = true;
  obs::MetricsRegistry* metrics = nullptr;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

/// Estimator health layer settings (src/obs/health.hpp): per-window
/// accuracy certificates plus the stall watchdog. Only active when
/// EngineConfig::telemetry is on -- with telemetry off every health hook is
/// the same single null test as the rest of the layer.
struct HealthConfig {
  /// When true, each rotation probes the just-sealed shard lattices and
  /// stamps an AccuracyCertificate (exported as rhhh_health_* gauges and
  /// served by the exporter's /health route). Probe cost is O(nodes x
  /// counters) per rotation -- control plane only, never the packet path.
  bool certificates = true;
  /// Certificates retained for /health and the flight recorder.
  std::size_t keep = 16;
  /// >0: run a StallWatchdog thread sampling engine progress this often.
  /// 0 (default) disables the watchdog.
  std::uint32_t watchdog_millis = 0;
  /// Flight-recorder dump file written when the watchdog detects a stall
  /// (TraceRing contents + last K certificates + EngineStats). Empty = keep
  /// the dump in memory only (StallWatchdog::last_dump()).
  std::string dump_path;

  [[nodiscard]] bool watchdog_enabled() const noexcept {
    return watchdog_millis > 0;
  }
};

/// Configuration of the sharded multi-core ingest engine: a MonitorConfig
/// plus the fan-out topology. See HhhEngine (engine/engine.hpp) for the
/// moving parts and README "Architecture" for when to choose HhhMonitor vs
/// HhhEngine.
struct EngineConfig {
  MonitorConfig monitor{};            ///< hierarchy + lattice parameters
  std::uint32_t workers = 4;          ///< W shard (consumer) threads
  std::uint32_t producers = 1;        ///< M ingest handles / threads
  std::size_t ring_capacity = 1 << 14;  ///< slots per producer×worker ring
  std::size_t batch = 64;             ///< producer-side flush batch size
  ShardPolicy policy = ShardPolicy::kKeyHash;
  OverflowPolicy overflow = OverflowPolicy::kBlock;

  // -- windowed change detection (HhhEngine::trend_snapshot) ----------------
  /// >0: a window closes once this many records have been PUSHED into the
  /// engine's rings since the last cut: the producer whose push spends the
  /// budget posts the cut (HhhEngine), and every pushed record reaches a
  /// lattice. Drop-tail drops fold into their window's N but never spend
  /// the budget, so a saturated ring cannot shorten windows relative to
  /// the traffic the lattices saw. With one producer every budget window
  /// holds exactly this many pushed records; with several, at least this
  /// many. 0 disables the budget (the paper's bounds are stated in
  /// packets). Manual HhhEngine::rotate_epoch() calls compose with it; a
  /// caller that wants time windows calls rotate_epoch() from its own timer.
  std::uint64_t epoch_packets = 0;
  /// Sealed windows each shard retains (>= 1). 1 is the classic
  /// live/previous pair; larger K adds HhhEngine::trend_snapshot()'s
  /// k-epoch growth curves and sustained-ramp alarms at the cost of K
  /// extra lattices per shard.
  std::size_t history_depth = 1;

  // -- durable window store (src/store/, HhhEngine background archiver) -----
  /// When enabled (non-empty dir), every sealed window is merged
  /// network-wide at rotation, handed to a background archiver thread
  /// through a bounded queue, and appended to the on-disk segment log --
  /// rotation never blocks on I/O. Requires a window clock or manual
  /// rotate_epoch() calls to produce sealed windows at all.
  ArchiveConfig archive{};

  // -- always-on telemetry (src/obs/) ---------------------------------------
  /// When true (the default -- the layer costs <3% update throughput, see
  /// bench/ablation_obs_overhead), the engine registers latency histograms
  /// (push/pop batch, quiesce, rotation, trend_snapshot merge), occupancy
  /// and queue-depth gauges, and EngineStats counter mirrors against
  /// `metrics` (the process-global registry when null), and records
  /// rotation/quiesce/seal/archive events into the global TraceRing.
  /// `false` is the uninstrumented baseline the overhead ablation measures
  /// against. With several engines sharing one registry, per-instance
  /// gauges are last-writer-wins; pass a private registry for isolation.
  bool telemetry = true;
  obs::MetricsRegistry* metrics = nullptr;

  /// Estimator-side health: accuracy certificates at rotation and the
  /// optional stall watchdog. Gated behind `telemetry` like the rest of
  /// the layer.
  HealthConfig health{};
};

class HhhEngine;  // engine/engine.hpp

/// Builds a sharded engine from the front-door config (defined in
/// engine/engine.cpp). Throws std::invalid_argument for a degenerate
/// topology (0 workers/producers/batch).
[[nodiscard]] std::unique_ptr<HhhEngine> make_engine(const EngineConfig& cfg);

class HhhMonitor {
 public:
  explicit HhhMonitor(MonitorConfig cfg = {});

  /// Per-packet update. IPv4-based hierarchies only (use the lattice
  /// directly with Key128 keys for IPv6 streams).
  void update(const PacketRecord& p) { alg_->update(hierarchy_->key_of(p)); }
  void update(Ipv4 src, Ipv4 dst) {
    alg_->update(hierarchy_->dims() == 2 ? Key128::from_pair(src, dst)
                                         : Key128::from_u32(src));
  }

  /// The approximate HHH set at threshold theta.
  [[nodiscard]] HhhSet query(double theta) const { return alg_->output(theta); }

  /// Human-readable report lines, one per HHH, sorted by estimate.
  [[nodiscard]] std::vector<std::string> report(double theta) const;

  [[nodiscard]] std::uint64_t packets() const noexcept {
    return alg_->stream_length();
  }
  /// Convergence bound (Theorem 6.17); the guarantees hold once
  /// packets() > psi().
  [[nodiscard]] double psi() const noexcept { return alg_->psi(); }
  [[nodiscard]] bool converged() const noexcept {
    // MST (psi == 0) carries its guarantees at any N.
    return psi() == 0.0 || static_cast<double>(packets()) > psi();
  }
  void clear() { alg_->clear(); }

  [[nodiscard]] const Hierarchy& hierarchy() const noexcept { return *hierarchy_; }
  [[nodiscard]] LatticeHhh& algorithm() noexcept { return *alg_; }
  [[nodiscard]] const LatticeHhh& algorithm() const noexcept { return *alg_; }
  [[nodiscard]] const MonitorConfig& config() const noexcept { return cfg_; }

 private:
  MonitorConfig cfg_;
  std::unique_ptr<Hierarchy> hierarchy_;
  std::unique_ptr<LatticeHhh> alg_;
};

}  // namespace rhhh
