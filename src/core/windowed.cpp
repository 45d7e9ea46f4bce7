#include "core/windowed.hpp"

#include <stdexcept>

namespace rhhh {

WindowedHhhMonitor::WindowedHhhMonitor(MonitorConfig cfg, std::uint64_t epoch_packets,
                                       std::size_t history_depth)
    : cfg_(cfg),
      epoch_packets_(epoch_packets),
      hierarchy_(std::make_unique<Hierarchy>(make_hierarchy(cfg.hierarchy))) {
  if (epoch_packets == 0) {
    throw std::invalid_argument("WindowedHhhMonitor: epoch_packets must be > 0");
  }
  if (history_depth == 0) {
    throw std::invalid_argument("WindowedHhhMonitor: history_depth must be >= 1");
  }
  // One instance per ring slot with independent randomness; slot 0 keeps
  // the config's own seed so depth 1 reproduces the classic live/sealed
  // pair byte for byte.
  ring_ = WindowRing<LatticeHhh>(history_depth, [&](std::size_t slot) {
    MonitorConfig slot_cfg = cfg_;
    slot_cfg.seed = cfg_.seed + slot;
    return make_algorithm(*hierarchy_, slot_cfg);
  });
}

void WindowedHhhMonitor::maybe_rotate() {
  if (ring_.live().stream_length() < epoch_packets_) return;
  ring_.rotate();
}

void WindowedHhhMonitor::update(const PacketRecord& p) {
  ring_.live().update(hierarchy_->key_of(p));
  maybe_rotate();
}

void WindowedHhhMonitor::update(Ipv4 src, Ipv4 dst) {
  ring_.live().update(hierarchy_->dims() == 2 ? Key128::from_pair(src, dst)
                                              : Key128::from_u32(src));
  maybe_rotate();
}

void WindowedHhhMonitor::update(Key128 key) {
  ring_.live().update(key);
  maybe_rotate();
}

void WindowedHhhMonitor::update_batch(const Key128* keys, std::size_t n) {
  while (n != 0) {
    // Cap each chunk at the packets left in the live epoch, so the rotation
    // fires on exactly the packet the per-packet path would rotate on.
    const std::uint64_t live_n = ring_.live().stream_length();
    if (live_n >= epoch_packets_) {  // defensive: never loop on a full epoch
      maybe_rotate();
      continue;
    }
    const std::uint64_t room = epoch_packets_ - live_n;
    const std::size_t take =
        n < room ? n : static_cast<std::size_t>(room);
    ring_.live().update_batch(keys, take);
    maybe_rotate();
    keys += take;
    n -= take;
  }
}

HhhSet WindowedHhhMonitor::current(double theta) const {
  return ring_.live().output(theta);
}

HhhSet WindowedHhhMonitor::previous(double theta) const {
  const LatticeHhh* sealed = ring_.sealed_or_null();
  if (sealed == nullptr) return HhhSet(hierarchy_->size());
  return sealed->output(theta);
}

std::vector<EmergingPrefix> WindowedHhhMonitor::emerging(double theta,
                                                         double growth_factor) const {
  return emerging_from(ring_.live(), ring_.sealed_or_null(), theta, growth_factor);
}

std::vector<TrendPoint> WindowedHhhMonitor::trend(const Prefix& p) const {
  return trend_of(windows_oldest_first(), p);
}

std::vector<SustainedPrefix> WindowedHhhMonitor::emerging_sustained(
    double theta, double growth_factor, std::uint32_t min_epochs,
    double alpha) const {
  return emerging_sustained_from(windows_oldest_first(), theta, growth_factor,
                                 min_epochs, alpha);
}

}  // namespace rhhh
