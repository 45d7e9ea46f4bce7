// The stage ledger: on one thread, at a workload's operating point, time
// each layer alone over the same window of packets, then all of them
// composed the way the engine chains them, and report what the stage sum
// leaves unexplained. Per-window stages (rotate, merge, certify, append)
// are amortized over the window's packets in the sum.
#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/monitor.hpp"
#include "core/window_ring.hpp"
#include "engine/shard_router.hpp"
#include "hhh/lattice_hhh.hpp"
#include "net/frame.hpp"
#include "obs/health.hpp"
#include "store/archive.hpp"
#include "store/serde.hpp"
#include "util/spsc_ring.hpp"

namespace bench {
namespace {

namespace fs = std::filesystem;

constexpr int kReps = 5;
constexpr std::size_t kUpdateBatch = 2048;
constexpr std::size_t kRing = std::size_t{1} << 16;
constexpr auto kKind = rhhh::HierarchyKind::kIpv4TwoDimBytes;

using Lattice = rhhh::RhhhSpaceSaving;
using Ring = rhhh::WindowRing<Lattice>;

/// Median over kReps of `body()`'s duration in ns; `prep()` runs untimed
/// before each repetition.
template <class Prep, class Body>
double median_ns(Tracer* tr, const char* name, Prep&& prep, Body&& body) {
  std::vector<double> ns;
  for (int i = 0; i < kReps; ++i) {
    prep();
    const Tracer::Scope sp(tr, name);
    const std::int64_t t0 = now_ns();
    body();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(ns);
}

class Ledger {
 public:
  Ledger(const Capture& cap, const LedgerPoint& p)
      : cap_(cap), p_(p), h_(rhhh::make_hierarchy(kKind)),
        n_(std::min(p.window, cap.frames)) {
    rhhh::MonitorConfig mc;
    mc.hierarchy = kKind;
    mc.algorithm = p.ten_rhhh ? rhhh::AlgorithmKind::kTenRhhh : rhhh::AlgorithmKind::kRhhh;
    mc.eps = p.eps;
    mc.delta = 1e-3;
    const auto cfg = rhhh::lattice_config_of(h_, mc);
    mode_ = cfg.first;
    params_ = cfg.second;
  }

  [[nodiscard]] std::unique_ptr<Lattice> lattice(std::uint64_t salt) const {
    rhhh::LatticeParams lp = params_;
    lp.seed = rhhh::mix64(params_.seed ^ salt);
    return std::make_unique<Lattice>(h_, mode_, lp);
  }
  [[nodiscard]] std::vector<Ring> rings() const {
    std::vector<Ring> out;
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      out.emplace_back(p_.history, [&](std::size_t s) { return lattice(0x2000ULL * s + w); });
    }
    return out;
  }

  void run(const std::string& dir, Result& r, Tracer* tr) {
    const double n = static_cast<double>(n_);
    std::vector<rhhh::PacketRecord> recs(n_);
    std::vector<rhhh::Key128> keys(n_);
    const auto nop = [] {};

    const double parse = median_ns(tr, "ledger.parse_frame", nop, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        recs[i] = rhhh::parse_frame({cap_.frame(i), kFrameLen}).value().record;
      }
    }) / n;
    const double key = median_ns(tr, "ledger.key_of", nop, [&] {
      for (std::size_t i = 0; i < n_; ++i) keys[i] = h_.key_of(recs[i]);
    }) / n;

    // Producer routing and buffering into per-worker batches.
    std::vector<std::vector<rhhh::Key128>> stream(kWorkers);
    const double route = median_ns(
        tr, "ledger.route",
        [&] {
          for (auto& s : stream) {
            s.clear();
            s.reserve(n_);
          }
        },
        [&] {
          rhhh::ShardRouter router(rhhh::ShardPolicy::kKeyHash, kWorkers, 0x5eedULL);
          for (std::size_t i = 0; i < n_; ++i) stream[router.route(keys[i])].push_back(keys[i]);
        }) / n;

    // SPSC transfer: push and pop every worker stream in 256-key batches.
    rhhh::SpscRing<rhhh::Key128> ring(kRing);
    std::vector<rhhh::Key128> popped(kBurst);
    const double spsc = median_ns(tr, "ledger.spsc", nop, [&] {
      for (const auto& s : stream) {
        for (std::size_t i = 0; i < s.size(); i += kBurst) {
          const std::size_t m = std::min(kBurst, s.size() - i);
          const std::size_t pushed = ring.try_push_n(s.data() + i, m);
          const std::size_t got = ring.try_pop_n(popped.data(), pushed);
          if (pushed != m || got != m) throw std::runtime_error("ledger: SPSC ring lost keys");
        }
      }
    }) / n;

    // update_batch on W fresh shard lattices; the last repetition's shards
    // are the window the per-window stages below work on.
    std::vector<std::unique_ptr<Lattice>> shards;
    const double update = median_ns(
        tr, "ledger.update_batch",
        [&] {
          shards.clear();
          for (std::uint32_t w = 0; w < kWorkers; ++w) shards.push_back(lattice(w));
        },
        [&] {
          for (std::uint32_t w = 0; w < kWorkers; ++w) feed(*shards[w], stream[w]);
        }) / n;

    // Rotation of a ring whose slots all hold full windows.
    std::vector<Ring> rs = rings();
    for (std::size_t i = 0; i <= p_.history; ++i) {
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        feed(rs[w].live(), stream[w]);
        rs[w].rotate();
      }
    }
    const double rotate_ns = median_ns(
        tr, "ledger.window_rotate", [&] { feed(rs[0].live(), stream[0]); },
        [&] { rs[0].rotate(); });

    std::vector<const Lattice*> views;
    for (const auto& s : shards) views.push_back(s.get());
    std::unique_ptr<Lattice> merged;
    const double merge_ns = median_ns(
        tr, "ledger.merge", [&] { merged = lattice(0); },
        [&] {
          for (const Lattice* s : views) merged->merge(*s);
        });
    const double certify_ns = median_ns(tr, "ledger.certify_window", nop, [&] {
      const rhhh::obs::AccuracyCertificate c = rhhh::obs::certify_window(views, 1, 0, now_ns());
      if (c.stream_length != n_) throw std::runtime_error("ledger: certificate N mismatch");
    });

    rhhh::store::WindowMeta meta;
    meta.epoch = 1;
    meta.stream_length = merged->stream_length();
    meta.updates = merged->updates_performed();
    rhhh::store::Bytes bytes;
    const double encode_ns = median_ns(tr, "ledger.encode", nop, [&] {
      bytes = rhhh::store::encode_window(meta, kKind, *merged);
    });
    const double decode_ns = median_ns(tr, "ledger.decode", nop, [&] {
      const auto back = rhhh::store::decode_window(bytes.data(), bytes.size(), h_, nullptr, &kKind);
      if (back->stream_length() != merged->stream_length()) {
        throw std::runtime_error("ledger: decoded window differs");
      }
    });

    fs::remove_all(dir);
    rhhh::ArchiveConfig ac;
    ac.dir = dir + "/stages";
    ac.fsync_mode = rhhh::FsyncMode::kNone;
    double append_ns = 0.0;
    {
      rhhh::store::WindowArchive ar = rhhh::store::WindowArchive::open_write(ac);
      append_ns = median_ns(tr, "ledger.append", [&] { ++meta.epoch; },
                            [&] { ar.append(meta, kKind, *merged); });
    }
    const double open_ns = median_ns(tr, "ledger.open_read", nop, [&] {
      if (rhhh::store::WindowArchive::open_read(ac.dir).windows() != kReps) {
        throw std::runtime_error("ledger: archive lost windows");
      }
    });

    const double window = (kWorkers * rotate_ns + merge_ns + certify_ns + append_ns) / n;
    const double sum = parse + key + route + spsc + update + window;
    const double composed = composed_ns(dir + "/composed", tr) / n;

    r.layer("ledger.parse_ns_per_pkt", parse, "ns");
    r.layer("ledger.key_of_ns_per_pkt", key, "ns");
    r.layer("ledger.route_ns_per_pkt", route, "ns");
    r.layer("ledger.spsc_ns_per_pkt", spsc, "ns");
    r.layer("hhh.update_batch_ns_per_pkt", update, "ns");
    r.layer("ledger.window_ns_per_pkt", window, "ns");
    r.layer("ledger.composed_ns_per_pkt", composed, "ns");
    r.layer("ledger.unattributed_ns_per_pkt", composed - sum, "ns");
    r.layer("core.window_rotate_us", rotate_ns / 1e3, "us");
    r.layer("hhh.merge_ms", merge_ns / 1e6, "ms");
    r.layer("obs.certify_us", certify_ns / 1e3, "us");
    r.layer("store.encode_ms_per_window", encode_ns / 1e6, "ms");
    r.layer("store.append_ms_per_window", append_ns / 1e6, "ms");
    r.layer("store.decode_ms_per_window", decode_ns / 1e6, "ms");
    r.layer("store.open_ms", open_ns / 1e6, "ms");
    fs::remove_all(dir);
  }

 private:
  static void feed(Lattice& l, const std::vector<rhhh::Key128>& keys) {
    for (std::size_t i = 0; i < keys.size(); i += kUpdateBatch) {
      l.update_batch(keys.data() + i, std::min(kUpdateBatch, keys.size() - i));
    }
  }

  /// Every stage chained over one window, as the engine chains them but on
  /// one thread: parse -> key_of -> route -> ring -> update_batch, then
  /// rotate, merge, certify and append. Median of kReps, in ns.
  double composed_ns(const std::string& dir, Tracer* tr) {
    std::vector<Ring> rs;
    std::unique_ptr<rhhh::store::WindowArchive> ar;
    int rep = 0;
    return median_ns(
        tr, "ledger.composed",
        [&] {
          rs = rings();
          ar.reset();
          rhhh::ArchiveConfig ac;
          ac.dir = dir + "/" + std::to_string(rep++);
          ac.fsync_mode = rhhh::FsyncMode::kNone;
          ar = std::make_unique<rhhh::store::WindowArchive>(
              rhhh::store::WindowArchive::open_write(ac));
        },
        [&] {
          rhhh::ShardRouter router(rhhh::ShardPolicy::kKeyHash, kWorkers, 0x5eedULL);
          rhhh::SpscRing<rhhh::Key128> ring(kRing);
          std::vector<std::vector<rhhh::Key128>> buf(kWorkers);
          std::vector<std::vector<rhhh::Key128>> pend(kWorkers);
          std::array<rhhh::PacketRecord, kBurst> recs{};
          std::array<rhhh::Key128, kBurst> keys{};
          const auto ship = [&](std::uint32_t w, bool last) {
            auto& b = buf[w];
            auto& q = pend[w];
            const std::size_t at = q.size();
            q.resize(at + b.size());
            ring.try_push_n(b.data(), b.size());
            ring.try_pop_n(q.data() + at, b.size());
            b.clear();
            if (q.size() >= kUpdateBatch || (last && !q.empty())) {
              rs[w].live().update_batch(q.data(), q.size());
              q.clear();
            }
          };
          for (std::size_t i = 0; i < n_; i += kBurst) {
            std::size_t m = 0;
            for (std::size_t j = 0; j < kBurst; ++j) {
              if (const auto p = rhhh::parse_frame({cap_.frame(i + j), kFrameLen})) {
                recs[m++] = p->record;
              }
            }
            for (std::size_t j = 0; j < m; ++j) keys[j] = h_.key_of(recs[j]);
            for (std::size_t j = 0; j < m; ++j) {
              const std::uint32_t w = router.route(keys[j]);
              buf[w].push_back(keys[j]);
              if (buf[w].size() == kBurst) ship(w, false);
            }
          }
          for (std::uint32_t w = 0; w < kWorkers; ++w) ship(w, true);
          std::vector<const Lattice*> sealed;
          for (Ring& rg : rs) {
            rg.rotate();
            sealed.push_back(&rg.sealed(0));
          }
          std::unique_ptr<Lattice> merged = lattice(0);
          for (const Lattice* s : sealed) merged->merge(*s);
          (void)rhhh::obs::certify_window(sealed, 1, 0, now_ns());
          rhhh::store::WindowMeta meta;
          meta.epoch = 1;
          meta.stream_length = merged->stream_length();
          meta.updates = merged->updates_performed();
          ar->append(meta, kKind, *merged);
        });
  }

  const Capture& cap_;
  LedgerPoint p_;
  rhhh::Hierarchy h_;
  std::size_t n_;
  rhhh::LatticeMode mode_ = rhhh::LatticeMode::kRhhh;
  rhhh::LatticeParams params_;
};

}  // namespace

void run_ledger(const Capture& cap, const LedgerPoint& p, const std::string& dir, Result& r,
                Tracer* tr) {
  const Tracer::Scope sp(tr, "ledger");
  Ledger(cap, p).run(dir, r, tr);
}

}  // namespace bench
