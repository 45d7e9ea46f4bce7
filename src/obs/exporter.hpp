// MetricsExporter: a minimal self-contained TCP listener serving the
// registry over HTTP -- the first brick of the ROADMAP's daemon story.
//
//   GET /metrics       Prometheus text exposition (0.0.4)
//   GET /metrics.json  JSON exposition
//   GET /trace[?n=K]   TraceRing dump as JSON, newest K events (when a
//                      ring is attached)
//   GET /health        last-K AccuracyCertificates as JSON (when a
//                      HealthLedger is attached)
//   GET /healthz       "ok" (liveness only; /health is the deep check)
//
// Malformed requests get clean 4xx + close, never a hang: non-GET
// methods 405, unparseable request lines 400, request heads exceeding
// the 16 KiB read cap 414.
//
// One background thread, poll()-based accept with a short timeout so
// stop() converges quickly, one request per connection (Connection:
// close). Scrapes only read registry atomics -- a live engine keeps
// ingesting at full rate while being scraped (no query, no engine
// locks).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace rhhh::obs {

class MetricsRegistry;
class TraceRing;
class HealthLedger;

class MetricsExporter {
 public:
  /// Serves `reg`; `trace` (optional) enables the /trace route.
  explicit MetricsExporter(MetricsRegistry& reg, TraceRing* trace = nullptr);
  ~MetricsExporter();

  /// Attach (or detach, with nullptr) the /health data source. Safe while
  /// serving -- demos construct the exporter before the engine that owns
  /// the ledger exists. The ledger must outlive the exporter or be
  /// detached first.
  void set_health_source(const HealthLedger* ledger) noexcept {
    // order: release -- pairs with the serving thread's acquire load; a
    // request that observes the pointer must observe the constructed ledger.
    health_.store(ledger, std::memory_order_release);
  }

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Bind 127.0.0.1:port (0 = kernel-assigned, see port()) and start the
  /// serving thread. Throws std::runtime_error on socket/bind failure.
  /// No-op when already running.
  void start(std::uint16_t port);

  /// Stop serving and join the thread. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    // order: relaxed -- observational flag; start/stop synchronize via the
    // thread join, not this load.
    return running_.load(std::memory_order_relaxed);
  }

  /// The bound port (useful after start(0)).
  [[nodiscard]] std::uint16_t port() const noexcept {
    // order: relaxed -- published before the serving thread starts; readers
    // only need a recent value.
    return port_.load(std::memory_order_relaxed);
  }

  /// Total requests served (any route).
  [[nodiscard]] std::uint64_t scrapes() const noexcept {
    // order: relaxed -- a statistic.
    return scrapes_.load(std::memory_order_relaxed);
  }

 private:
  void serve_loop();

  MetricsRegistry* reg_;
  TraceRing* trace_;
  std::atomic<const HealthLedger*> health_{nullptr};
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<std::uint16_t> port_{0};
  std::atomic<std::uint64_t> scrapes_{0};
  std::thread thread_;
};

/// Blocking HTTP/1.0 GET against 127.0.0.1:port; returns the full response
/// (status line + headers + body), or "" on connect/timeout failure. Test
/// and demo helper -- not a general client.
[[nodiscard]] std::string http_get_local(std::uint16_t port,
                                         const std::string& path,
                                         int timeout_ms = 2000);

namespace detail {
/// Write all of `data` to `fd`, retrying short writes and EINTR (a signal
/// landing mid-scrape must not truncate the response -- only a real error
/// or a closed peer aborts). Exposed for the interrupted-write unit test.
void send_all(int fd, const std::string& data);
/// Read from `fd` until the HTTP header terminator ("\r\n\r\n"), a 16 KiB
/// cap, a quiet period, or EOF -- retrying EINTR on both poll() and recv()
/// so an interrupted read never drops the request. Exposed for tests.
[[nodiscard]] std::string read_request(int fd);
}  // namespace detail

}  // namespace rhhh::obs
