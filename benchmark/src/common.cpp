#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <stdexcept>

#include "eval/ground_truth.hpp"
#include "net/frame.hpp"
#include "net/pcap.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"

namespace bench {

Scale Scale::of(const Options& o) {
  Scale s;
  if (o.smoke) {
    s.capture = std::size_t{40} << 10;
    s.detect_capture = std::size_t{80} << 10;
    s.forensics_windows = 16;
    s.queries_min = 8;
    s.detect_pps /= 50;
    s.wire_recall_theta = 0.5;
    s.forensics_recall_theta = 0.5;
  }
  return s;
}

Capture make_capture(std::uint64_t seed, std::size_t frames, bool flood,
                     const std::string& dir) {
  if (frames == 0 || frames % kBurst != 0) {
    throw std::invalid_argument("capture size must be a positive multiple of the burst");
  }
  rhhh::TraceConfig tc = rhhh::trace_preset("chicago16");
  tc.seed = seed;
  rhhh::TraceGenerator gen(tc);
  rhhh::Xoroshiro128 flood_rng(rhhh::mix64(seed ^ 0xf100dULL));
  std::vector<rhhh::PacketRecord> records(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    rhhh::PacketRecord p = gen.next();
    if (flood && i >= frames / 2 && flood_rng.bounded(5) == 0) {
      p.src_ip = kFloodSrcNet | static_cast<rhhh::Ipv4>(flood_rng.bounded(1u << 16));
      p.dst_ip = kVictim;
      p.proto = static_cast<std::uint8_t>(rhhh::IpProto::kUdp);
      p.src_port = static_cast<std::uint16_t>(flood_rng.bounded(1u << 16));
      p.dst_port = 53;
    }
    p.length = kFrameLen;
    records[i] = p;
  }

  const std::string path = dir + "/capture.pcap";
  {
    rhhh::PcapWriter w(path);
    for (const rhhh::PacketRecord& p : records) w.write(p);
  }

  Capture cap;
  cap.frames = frames;
  cap.arena.resize(frames * kFrameLen);
  {
    rhhh::PcapReader rd(path);
    const std::int64_t t0 = now_ns();
    std::size_t n = 0;
    while (auto f = rd.next_frame()) {
      if (n == frames || f->size() != kFrameLen) {
        throw std::runtime_error("capture read-back: unexpected frame");
      }
      std::memcpy(cap.arena.data() + n * kFrameLen, f->data(), kFrameLen);
      ++n;
    }
    cap.pcap_read_ns_per_pkt = static_cast<double>(now_ns() - t0) / static_cast<double>(frames);
    if (n != frames) throw std::runtime_error("capture read-back: frames missing");
  }
  std::filesystem::remove(path);

  for (std::size_t i = 0; i < frames; ++i) {
    const auto parsed = rhhh::parse_frame({cap.frame(i), kFrameLen});
    rhhh::PacketRecord want = records[i];
    want.ts_us = 0;  // the frame carries no timestamp; pcap's header does
    if (!parsed || !(parsed->record == want)) {
      throw std::runtime_error("capture read-back: record " + std::to_string(i) +
                               " differs from the generated one");
    }
  }
  return cap;
}

namespace {

/// Every key of one capture pass, through parse_frame and key_of.
std::vector<rhhh::Key128> capture_keys(const Capture& cap, const rhhh::Hierarchy& h) {
  std::vector<rhhh::Key128> keys;
  keys.reserve(cap.frames);
  for (std::size_t i = 0; i < cap.frames; ++i) {
    if (const auto p = rhhh::parse_frame({cap.frame(i), kFrameLen})) {
      keys.push_back(h.key_of(p->record));
    }
  }
  return keys;
}

}  // namespace

double hhh_recall(const Capture& cap, const std::vector<const rhhh::HhhAlgorithm*>& sketches,
                  double theta) {
  if (sketches.empty()) return 0.0;
  const rhhh::Hierarchy& h = sketches.front()->hierarchy();
  rhhh::ExactHhh exact(h);
  for (const rhhh::Key128& k : capture_keys(cap, h)) exact.add(k);
  const rhhh::HhhSet truth = exact.compute(theta);
  double sum = 0.0;
  for (const rhhh::HhhAlgorithm* s : sketches) {
    const rhhh::HhhSet approx = s->output(theta);
    std::size_t hit = 0;
    for (const rhhh::HhhCandidate& c : truth) hit += approx.contains(c.prefix) ? 1 : 0;
    sum += truth.size() == 0 ? 1.0
                             : static_cast<double>(hit) / static_cast<double>(truth.size());
  }
  return sum / static_cast<double>(sketches.size());
}

bool same_hhh(const rhhh::HhhSet& a, const rhhh::HhhSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const rhhh::HhhCandidate& x = a[i];
    const rhhh::HhhCandidate& y = b[i];
    if (!(x.prefix == y.prefix) || x.f_est != y.f_est || x.f_lo != y.f_lo ||
        x.f_hi != y.f_hi || x.c_hat != y.c_hat) {
      return false;
    }
  }
  return true;
}

// -- Tracer -------------------------------------------------------------------

namespace {
struct LocalBuf {
  const Tracer* owner = nullptr;
  std::deque<Tracer::Span>* buf = nullptr;
  std::uint32_t tid = 0;
  std::vector<std::uint64_t> open;  ///< ids of the open Scopes, innermost last
};
thread_local LocalBuf t_local;
}  // namespace

std::deque<Tracer::Span>& Tracer::local() {
  if (t_local.owner != this) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<std::deque<Span>>());
    t_local.owner = this;
    t_local.buf = buffers_.back().get();
    t_local.tid = next_tid_++;
    t_local.open.clear();
  }
  return *t_local.buf;
}

std::uint64_t Tracer::reserve_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

void Tracer::record_with_id(std::uint64_t id, const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint64_t parent) {
  std::deque<Span>& b = local();
  b.push_back(Span{name, start_ns, end_ns - start_ns, id, parent, t_local.tid});
}

void Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t parent) {
  record_with_id(reserve_id(), name, start_ns, end_ns, parent);
}

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t), name_(name) {
  if (t_ == nullptr) return;
  t_->local();
  parent_ = t_local.open.empty() ? 0 : t_local.open.back();
  id_ = t_->reserve_id();
  t_local.open.push_back(id_);
  start_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  const std::int64_t end = now_ns();
  t_local.open.pop_back();
  t_->record_with_id(id_, name_, start_, end, parent_);
}

std::size_t Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->size();
  return n;
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : *b) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                   ", \"parent\": %" PRIu64 "}}",
                   first ? "" : ",\n", s.name, s.tid,
                   static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, s.id, s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// -- thread placement -------------------------------------------------------------

namespace {

/// CPUs in the calling thread's affinity mask, ascending.
std::vector<int> mask_cpus() {
  std::vector<int> out;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (CPU_ISSET(i, &mask)) out.push_back(i);
    }
  }
  return out;
}

/// The process's CPUs, as its mask read before any thread was restricted
/// (main() places itself first).
const std::vector<int>& process_cpus() {
  static const std::vector<int> cpus = mask_cpus();
  return cpus;
}

}  // namespace

void run_on(Cpus c, std::size_t shift) {
  const std::vector<int>& cpus = process_cpus();
  const std::size_t reserved = c == Cpus::kAllButGenerator || c == Cpus::kGenerator ? 1 : 2;
  if (cpus.size() <= reserved) return;
  const auto cpu = [&](std::size_t role) { return cpus[(role + shift) % cpus.size()]; };
  cpu_set_t mask;
  CPU_ZERO(&mask);
  switch (c) {
    case Cpus::kGenerator: CPU_SET(cpu(0), &mask); break;
    case Cpus::kControl: CPU_SET(cpu(1), &mask); break;
    case Cpus::kAllButGenerator:
    case Cpus::kAllButGeneratorAndControl:
      for (std::size_t i = reserved; i < cpus.size(); ++i) CPU_SET(cpu(i), &mask);
      break;
  }
  (void)sched_setaffinity(0, sizeof mask, &mask);  // placement only; failure is harmless
}

void run_on_cpu(std::size_t i) {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus[i % cpus.size()], &mask);
  (void)sched_setaffinity(0, sizeof mask, &mask);  // placement only, as above
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(std::atoi(e.path().filename().c_str()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void place_new_threads(const std::vector<int>& before, std::size_t pinned) {
  std::vector<int> fresh;
  std::ranges::set_difference(thread_ids(), before, std::back_inserter(fresh));
  const std::vector<int> cpus = mask_cpus();
  if (fresh.size() < pinned || cpus.size() < pinned) return;
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (std::size_t i = pinned; i < cpus.size(); ++i) CPU_SET(cpus[i], &rest);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (i < pinned) {
      CPU_SET(cpus[i], &mask);
    } else if (cpus.size() > pinned) {
      mask = rest;
    } else {
      continue;  // no CPU left over: keep the inherited mask
    }
    (void)sched_setaffinity(fresh[i], sizeof mask, &mask);  // placement only, as above
  }
  if (cpus.size() > pinned) (void)sched_setaffinity(0, sizeof rest, &rest);
}

// -- statistics -----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double quiet_median(const std::vector<double>& samples, Better better) {
  std::vector<double> medians;
  for (std::size_t i = 0; i + kSegment <= samples.size(); i += kSegment) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(i);
    medians.push_back(median({first, first + static_cast<std::ptrdiff_t>(kSegment)}));
  }
  // Too few samples for one full segment (smoke scale): plain median.
  if (medians.empty()) return median(samples);
  return quantile(medians, better == Better::kLower ? kQuietQuantile : 1.0 - kQuietQuantile);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace bench
