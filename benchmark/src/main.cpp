// rhhh_bench: one workload of the end-to-end benchmark per process.
//
//   rhhh_bench --workload wire10|wire1|detect|forensics --seed S
//              [--seconds T] [--trace DIR] [--smoke] [--work-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics, or with --trace the per-layer metrics (and
// DIR/trace.json plus DIR/layers.json). A failed check prints the object
// with "correct": false and exits 1; a usage or setup error exits 2.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using bench::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload (tracing off).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"throughput_mpps", "Mpps"}, {"latency_ms_p50", "ms"},
    {"recall", "ratio"}, {"peak_rss_mb", "MB"},
};

/// Every per-layer metric (traced run). A layer a workload does not
/// exercise reads 0. latency_ms_p90 is the end-to-end latency's tail: on a
/// shared host it does not repeat within the bounds a gate needs.
constexpr MetricDef kPerLayer[] = {
    {"latency_ms_p90", "ms"},
    {"net.pcap_read_ns_per_pkt", "ns"},     {"net.parse_ns_per_pkt", "ns"},
    {"net.parse_errors", "count"},          {"hierarchy.key_of_ns_per_pkt", "ns"},
    {"engine.ingest_ns_per_pkt", "ns"},     {"engine.backpressure_per_mpkt", "count"},
    {"engine.loss_ppm", "ppm"},             {"engine.worker_skew", "ratio"},
    {"engine.rotation_drift_us", "us"},     {"engine.late_rotations", "count"},
    {"engine.trend_snapshot_ms_p50", "ms"}, {"engine.trend_snapshot_ms_p90", "ms"},
    {"engine.trend_cache_hits", "count"},   {"engine.stop_ms", "ms"},
    {"engine.tracing_overhead_pct", "%"},   {"gen.late_ms_p99", "ms"},
    {"hhh.update_batch_ns_per_pkt", "ns"},  {"hhh.survivor_ratio", "ratio"},
    {"hhh.merge_ms", "ms"},                 {"core.window_rotate_us", "us"},
    {"obs.certify_us", "us"},               {"store.encode_ms_per_window", "ms"},
    {"store.append_ms_per_window", "ms"},   {"store.decode_ms_per_window", "ms"},
    {"store.open_ms", "ms"},                {"store.bytes_per_window", "bytes"},
    {"store.archive_lag_ms_p50", "ms"},     {"store.archive_lag_ms_p90", "ms"},
    {"store.archive_queue_drops", "count"}, {"store.archive_errors", "count"},
    {"ledger.parse_ns_per_pkt", "ns"},      {"ledger.key_of_ns_per_pkt", "ns"},
    {"ledger.route_ns_per_pkt", "ns"},      {"ledger.spsc_ns_per_pkt", "ns"},
    {"ledger.window_ns_per_pkt", "ns"},     {"ledger.composed_ns_per_pkt", "ns"},
    {"ledger.unattributed_ns_per_pkt", "ns"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rhhh_bench: %s\nusage: rhhh_bench --workload wire10|wire1|detect|forensics "
               "--seed S [--seconds T] [--trace DIR] [--smoke] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

bench::Options parse_args(int argc, char** argv) {
  bench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace_dir = value();
    } else if (a == "--work-dir") {
      o.work_dir = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  if (o.work_dir.empty()) o.work_dir = ".bench_build/work/" + o.workload;
  return o;
}

void print_metrics(std::FILE* f, const std::map<std::string, Result::Metric>& m,
                   const char* indent) {
  bool first = true;
  for (const auto& [name, v] : m) {
    std::fprintf(f, "%s%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ",",
                 indent, name.c_str(), v.value, v.unit.c_str());
    first = false;
  }
}

void write_layers(const std::string& path, const bench::Options& o, const Result& r,
                  std::size_t spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %" PRIu64 ",\n  \"spans\": %zu,\n",
               o.workload.c_str(), o.seed, spans);
  std::fprintf(f, "  \"end_to_end\": {");
  print_metrics(f, r.e2e, "\n    ");
  std::fprintf(f, "\n  },\n  \"per_layer\": {");
  print_metrics(f, r.layers, "\n    ");
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options o = parse_args(argc, argv);
  bench::run_on(bench::Cpus::kAllButGenerator);
  Result r;
  bench::Tracer tracer;
  bench::Tracer* tr = o.traced() ? &tracer : nullptr;
  try {
    std::filesystem::create_directories(o.work_dir);
    if (o.traced()) std::filesystem::create_directories(o.trace_dir);
    if (o.workload == "wire10") {
      bench::run_wire(o, true, r, tr);
    } else if (o.workload == "wire1") {
      bench::run_wire(o, false, r, tr);
    } else if (o.workload == "detect") {
      bench::run_detect(o, r, tr);
    } else if (o.workload == "forensics") {
      bench::run_forensics(o, r, tr);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
    r.set("peak_rss_mb", bench::peak_rss_mb(), "MB");
    std::filesystem::remove_all(o.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rhhh_bench: %s: %s\n", o.workload.c_str(), e.what());
    std::error_code ec;
    std::filesystem::remove_all(o.work_dir, ec);
    return 2;
  }

  for (const MetricDef& m : kEndToEnd) {
    r.check(r.e2e.count(m.name) == 1 && r.e2e[m.name].unit == m.unit,
            std::string("end-to-end metric missing: ") + m.name);
  }
  if (o.traced()) {
    for (const MetricDef& m : kPerLayer) {
      if (r.layers.count(m.name) == 0) r.layer(m.name, 0.0, m.unit);
      r.check(r.layers[m.name].unit == m.unit, std::string("unit mismatch: ") + m.name);
    }
    r.check(r.layers.size() == std::size(kPerLayer), "unlisted per-layer metric");
    tracer.write_json(o.trace_dir + "/trace.json");
    write_layers(o.trace_dir + "/layers.json", o, r, tracer.spans());
  }
  for (const std::string& f : r.check_failures) {
    std::fprintf(stderr, "rhhh_bench: %s: check failed: %s\n", o.workload.c_str(), f.c_str());
  }
  const bool correct = r.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  print_metrics(stdout, o.traced() ? r.layers : r.e2e, " ");
  std::printf("}}\n");
  return correct ? 0 : 1;
}
