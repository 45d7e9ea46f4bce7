// The userspace datapath pipeline (mini dpif-netdev): exact-match cache ->
// megaflow classifier -> action, with an optional per-packet measurement
// hook -- exactly where the paper's dataplane integration places the HHH
// update (Section 5.2, "HHH measurement can be performed as part of the OVS
// dataplane").
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "net/packet.hpp"
#include "vswitch/emc.hpp"
#include "vswitch/megaflow.hpp"

namespace rhhh {

namespace obs {
class Counter;          // obs/metrics.hpp -- forward-declared; counters are
class MetricsRegistry;  // bound in datapath.cpp when telemetry is on.
}  // namespace obs

/// Per-packet measurement callback attached to the datapath.
class MeasurementHook {
 public:
  virtual ~MeasurementHook() = default;
  virtual void on_packet(const PacketRecord& p) = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Adapts an HHH algorithm -- any type with update(Key128), hierarchy()
/// and name(), such as LatticeHhh -- into a dataplane hook.
template <class Alg>
class HhhHook final : public MeasurementHook {
 public:
  explicit HhhHook(Alg& alg) : alg_(&alg) {}
  void on_packet(const PacketRecord& p) override {
    alg_->update(alg_->hierarchy().key_of(p));
  }
  [[nodiscard]] std::string_view name() const override { return alg_->name(); }

 private:
  Alg* alg_;
};

struct DatapathConfig {
  std::size_t emc_capacity = 8192;
  Action default_action = Action::output(1);  ///< applied on classifier miss
  /// Always-on telemetry (src/obs/): process-wide EMC-hit / megaflow-hit /
  /// upcall counters registered against `metrics` (the global registry when
  /// null). One sharded relaxed-atomic add per packet; set false for the
  /// uninstrumented baseline.
  bool telemetry = true;
  obs::MetricsRegistry* metrics = nullptr;
};

class Datapath {
 public:
  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t emc_hits = 0;
    std::uint64_t megaflow_hits = 0;
    std::uint64_t misses = 0;  ///< neither cache nor classifier matched
    std::uint64_t forwarded = 0;
    std::uint64_t dropped = 0;
  };

  explicit Datapath(DatapathConfig cfg = {});

  /// Attach (or detach with nullptr) the measurement hook; non-owning.
  void set_hook(MeasurementHook* hook) noexcept { hook_ = hook; }
  void add_rule(const FlowMask& mask, const FiveTuple& match, Action action) {
    megaflow_.add_rule(mask, match, action);
  }

  /// Full pipeline for one packet; returns the applied action.
  Action process(const PacketRecord& p);

  /// Convenience batch loop; returns packets forwarded.
  std::uint64_t run(std::span<const PacketRecord> packets);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ExactMatchCache& emc() const noexcept { return emc_; }
  [[nodiscard]] const MegaflowTable& megaflow() const noexcept { return megaflow_; }

 private:
  ExactMatchCache emc_;
  MegaflowTable megaflow_;
  MeasurementHook* hook_ = nullptr;
  Action default_action_;
  Stats stats_{};
  // Registry-owned process-wide counters (null = telemetry off); several
  // datapaths accumulate into the same families.
  obs::Counter* m_emc_hits_ = nullptr;
  obs::Counter* m_megaflow_hits_ = nullptr;
  obs::Counter* m_upcalls_ = nullptr;
};

}  // namespace rhhh
