#include "obs/health.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"

namespace rhhh::obs {

namespace {

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_i64(std::string& out, const char* key, std::int64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_f64(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.12g", key, v);
  out += buf;
}

[[nodiscard]] std::string trace_records_json(const std::vector<TraceRecord>& recs) {
  std::string out = "[";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const TraceRecord& r = recs[i];
    if (i > 0) out += ',';
    out += '{';
    append_u64(out, "seq", r.seq);
    out += ',';
    append_i64(out, "ts_ns", r.ts_ns);
    out += ",\"event\":\"";
    out += to_string(r.event);
    out += "\",";
    append_u64(out, "arg0", r.arg0);
    out += ',';
    append_u64(out, "arg1", r.arg1);
    out += '}';
  }
  out += ']';
  return out;
}

// Gauge samplers funnel through rlx(): each reads one statistic mirror
// that stamp() overwrites whole, so scrape-time staleness by at most one
// certificate is the only slack.
[[nodiscard]] double rlx(const std::atomic<std::uint64_t>& a) {
  // order: relaxed -- scrape-time read of a mirror; publishes nothing.
  return static_cast<double>(a.load(std::memory_order_relaxed));
}
[[nodiscard]] double rlx(const std::atomic<double>& a) {
  // order: relaxed -- scrape-time read of a mirror; publishes nothing.
  return a.load(std::memory_order_relaxed);
}
[[nodiscard]] double rlx(const std::atomic<bool>& a) {
  // order: relaxed -- scrape-time read of a mirror; publishes nothing.
  return a.load(std::memory_order_relaxed) ? 1.0 : 0.0;
}

}  // namespace

AccuracyCertificate certify_window(
    const std::vector<const RhhhSpaceSaving*>& shards, std::uint64_t epoch,
    std::uint64_t drops, std::int64_t stamped_ns) {
  AccuracyCertificate c;
  c.epoch = epoch;
  c.stamped_ns = stamped_ns;
  c.drops = drops;
  c.stream_length = drops;  // drop-folded N: offered = consumed + dropped
  if (shards.empty()) return c;
  const RhhhSpaceSaving& first = *shards.front();
  c.eps_configured = first.eps_a();

  // Node min-counts add across shards: the merged structure's untracked
  // upper bound for node d is the sum of per-shard min bounds, so the
  // per-node additive error of the cross-shard view is bounded by it.
  std::vector<double> node_min;
  double fill_sum = 0.0;
  std::size_t fill_n = 0;
  for (const RhhhSpaceSaving* s : shards) {
    c.stream_length += s->stream_length();
    c.updates += s->updates_performed();
    const std::vector<BackendProbe> probes = s->health_probes();
    if (node_min.size() < probes.size()) node_min.resize(probes.size(), 0.0);
    for (std::size_t d = 0; d < probes.size(); ++d) {
      node_min[d] += s->scale() * static_cast<double>(probes[d].min_count);
      c.evictions += probes[d].evictions;
      c.max_saturation = std::max(c.max_saturation, probes[d].saturation);
      fill_sum += probes[d].saturation;
      ++fill_n;
    }
  }

  const double n = static_cast<double>(c.stream_length);
  double worst = 0.0;
  for (const double m : node_min) worst = std::max(worst, m);
  c.eps_empirical = n > 0.0 ? worst / n : 0.0;
  if (first.mode() != LatticeMode::kMst && n > 0.0) {
    // Theorems 6.11/6.15 at the drop-folded cross-shard N: the same slack
    // correction() reports per shard, recomputed at the combined length.
    const double corr =
        2.0 * first.z_corr() * std::sqrt(n * static_cast<double>(first.V()));
    c.sampling_slack = corr / n;
  }
  c.occupancy = fill_n > 0 ? fill_sum / static_cast<double>(fill_n) : 0.0;
  c.converged = first.mode() == LatticeMode::kMst || n > first.psi();
  return c;
}

std::string certificate_json(const AccuracyCertificate& c) {
  std::string out = "{";
  append_u64(out, "epoch", c.epoch);
  out += ',';
  append_i64(out, "stamped_ns", c.stamped_ns);
  out += ',';
  append_u64(out, "stream_length", c.stream_length);
  out += ',';
  append_u64(out, "drops", c.drops);
  out += ',';
  append_u64(out, "updates", c.updates);
  out += ',';
  append_u64(out, "evictions", c.evictions);
  out += ',';
  append_f64(out, "eps_configured", c.eps_configured);
  out += ',';
  append_f64(out, "eps_empirical", c.eps_empirical);
  out += ',';
  append_f64(out, "sampling_slack", c.sampling_slack);
  out += ',';
  append_f64(out, "occupancy", c.occupancy);
  out += ',';
  append_f64(out, "max_saturation", c.max_saturation);
  out += ",\"converged\":";
  out += c.converged ? "true" : "false";
  out += '}';
  return out;
}

HealthLedger::HealthLedger(MetricsRegistry* reg, std::size_t keep)
    : reg_(reg), keep_(keep == 0 ? 1 : keep) {
  if (reg_ == nullptr) return;
  const auto own = [&](const std::string& name, std::function<double()> fn,
                       const std::string& help) {
    reg_->gauge_fn(name, std::move(fn), help);
    owned_.push_back(name);
  };
  // Samplers go through rlx() above: one relaxed mirror read each.
  own("rhhh_health_certificates_total", [this] { return rlx(stamped_); },
      "Accuracy certificates stamped since start");
  own("rhhh_health_window_epoch", [this] { return rlx(epoch_); },
      "Newest certified window epoch");
  own("rhhh_health_window_stream_length", [this] { return rlx(n_); },
      "Drop-folded N of the newest certified window");
  own("rhhh_health_window_drops", [this] { return rlx(drops_); },
      "Records dropped at the rings during the newest certified window");
  own("rhhh_health_evictions", [this] { return rlx(evictions_); },
      "Space-Saving roster evictions in the newest certified window");
  own("rhhh_health_eps_empirical", [this] { return rlx(eps_emp_); },
      "Empirical additive-error bound of the newest window, relative to N");
  own("rhhh_health_eps_configured", [this] { return rlx(eps_cfg_); },
      "Construction-time per-node eps_a target");
  own("rhhh_health_sampling_slack", [this] { return rlx(slack_); },
      "Theorem 6.11 sampling slack of the newest window, relative to N");
  own("rhhh_health_occupancy", [this] { return rlx(occupancy_); },
      "Mean roster fill fraction across lattice nodes");
  own("rhhh_health_saturation", [this] { return rlx(saturation_); },
      "Worst roster fill fraction across lattice nodes");
  own("rhhh_health_converged", [this] { return rlx(converged_); },
      "1 when the newest certified window cleared psi (Theorem 6.17)");
}

HealthLedger::~HealthLedger() {
  if (reg_ == nullptr) return;
  for (const std::string& name : owned_) reg_->unregister(name);
}

void HealthLedger::stamp(const AccuracyCertificate& c) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ring_.push_front(c);
    if (ring_.size() > keep_) ring_.pop_back();
  }
  // order: relaxed -- the mirror fields are independent statistics sampled
  // by gauge_fns; a scrape tearing across two certificates is acceptable.
  epoch_.store(c.epoch, std::memory_order_relaxed);
  n_.store(c.stream_length, std::memory_order_relaxed);
  drops_.store(c.drops, std::memory_order_relaxed);
  evictions_.store(c.evictions, std::memory_order_relaxed);
  eps_emp_.store(c.eps_empirical, std::memory_order_relaxed);
  eps_cfg_.store(c.eps_configured, std::memory_order_relaxed);
  slack_.store(c.sampling_slack, std::memory_order_relaxed);
  occupancy_.store(c.occupancy, std::memory_order_relaxed);
  saturation_.store(c.max_saturation, std::memory_order_relaxed);
  converged_.store(c.converged, std::memory_order_relaxed);
  stamped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<AccuracyCertificate> HealthLedger::recent() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::string HealthLedger::render_json() const {
  const std::vector<AccuracyCertificate> certs = recent();
  std::string out = "{";
  append_u64(out, "stamped", stamped());
  out += ",\"certificates\":[";
  for (std::size_t i = 0; i < certs.size(); ++i) {
    if (i > 0) out += ',';
    out += certificate_json(certs[i]);
  }
  out += "]}";
  return out;
}

StallWatchdog::StallWatchdog(Config cfg, Sampler sampler, StatsJson stats_json,
                             const HealthLedger* ledger, TraceRing* trace,
                             MetricsRegistry* reg)
    : cfg_(cfg),
      sampler_(std::move(sampler)),
      stats_json_(std::move(stats_json)),
      ledger_(ledger),
      trace_(trace),
      reg_(reg) {
  if (cfg_.period_ns == 0) cfg_.period_ns = 100'000'000;
  if (reg_ == nullptr) return;
  const auto own = [&](const std::string& name, std::function<double()> fn,
                       const std::string& help) {
    reg_->gauge_fn(name, std::move(fn), help);
    owned_.push_back(name);
  };
  // order: relaxed -- statistic mirrors, same contract as the ledger's.
  own("rhhh_health_stall_periods_total",
      [this] { return static_cast<double>(stalls_.load(std::memory_order_relaxed)); },
      "Watchdog periods that observed a stalled engine");
  own("rhhh_health_stall_episodes_total",
      [this] { return static_cast<double>(episodes_.load(std::memory_order_relaxed)); },
      "Distinct stall episodes (one flight-recorder dump each)");
}

StallWatchdog::~StallWatchdog() {
  stop();
  if (reg_ == nullptr) return;
  for (const std::string& name : owned_) reg_->unregister(name);
}

void StallWatchdog::start() {
  // order: relaxed -- start/stop are externally serialized (engine control
  // plane); the flag only answers "is a thread running".
  if (running_.exchange(true, std::memory_order_relaxed)) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { loop(); });
}

void StallWatchdog::stop() {
  // order: relaxed -- same externally-serialized contract as start().
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::string StallWatchdog::last_dump() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_dump_;
}

void StallWatchdog::loop() {
  Progress prev{};
  bool have_prev = false;
  std::uint64_t consecutive = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::nanoseconds(cfg_.period_ns),
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    const Progress p = sampler_ ? sampler_() : Progress{};
    // Detection: a full period with the consumed tally frozen while the
    // rings hold work, or a rotation the sampler reports as overdue. The
    // first comparison needs a previous sample, so a fresh stall is seen
    // within two periods of onset.
    const char* reason = nullptr;
    if (have_prev && p.consumed == prev.consumed && p.backlog > 0) {
      reason = "no_progress";
    } else if (p.rotation_overdue) {
      reason = "rotation_overdue";
    }
    if (reason != nullptr) {
      ++consecutive;
      const auto now = static_cast<std::int64_t>(now_ns());
      if (trace_ != nullptr) {
        trace_->record(TraceEvent::kStall, now, consecutive, p.backlog);
      }
      if (consecutive == 1) {
        on_stall(p, reason, now);
        // order: release -- the dump is stored (and the trace event
        // recorded) before the episode becomes countable; pairs with the
        // acquire in stall_episodes().
        episodes_.fetch_add(1, std::memory_order_release);
      }
      // order: release -- incremented last so a poller that observes the
      // stall also finds the episode's flight recorder already written;
      // pairs with the acquire in stalls().
      stalls_.fetch_add(1, std::memory_order_release);
    } else {
      consecutive = 0;
    }
    prev = p;
    have_prev = true;
  }
}

void StallWatchdog::on_stall(const Progress& p, const char* reason,
                             std::int64_t detected_ns) {
  // Flight recorder: everything a postmortem needs, in one JSON document.
  std::string dump = "{";
  append_i64(dump, "detected_ns", detected_ns);
  dump += ",\"reason\":\"";
  dump += reason;
  dump += "\",\"progress\":{";
  append_u64(dump, "consumed", p.consumed);
  dump += ',';
  append_u64(dump, "backlog", p.backlog);
  dump += ',';
  append_u64(dump, "window_epochs", p.window_epochs);
  dump += "},\"stats\":";
  dump += stats_json_ ? stats_json_() : std::string("null");
  dump += ",\"certificates\":[";
  if (ledger_ != nullptr) {
    const std::vector<AccuracyCertificate> certs = ledger_->recent();
    for (std::size_t i = 0; i < certs.size(); ++i) {
      if (i > 0) dump += ',';
      dump += certificate_json(certs[i]);
    }
  }
  dump += "],\"trace\":";
  dump += trace_ != nullptr ? trace_records_json(trace_->dump())
                            : std::string("[]");
  dump += '}';

  if (!cfg_.dump_path.empty()) {
    std::ofstream out(cfg_.dump_path, std::ios::trunc);
    if (out) out << dump << '\n';
  }
  const std::lock_guard<std::mutex> lock(mu_);
  last_dump_ = std::move(dump);
}

}  // namespace rhhh::obs
