#include "common/bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

namespace rhhh::bench {

Args Args::parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--scale") {
      a.scale = std::atof(next());
    } else if (flag == "--runs") {
      a.runs = std::atoi(next());
    } else if (flag == "--eps") {
      a.eps = std::atof(next());
    } else if (flag == "--delta") {
      a.delta = std::atof(next());
    } else if (flag == "--theta") {
      a.theta = std::atof(next());
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (flag == "--json") {
      a.json = next();
    } else if (flag == "--help" || flag == "-h") {
      std::printf(
          "options: --scale F (stream length multiplier, default 1)\n"
          "         --runs N --eps E --delta D --theta T --seed S\n"
          "         --json PATH (also write tables as machine-readable JSON)\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", flag.c_str());
      std::exit(2);
    }
  }
  if (!a.json.empty()) {
    std::string bench = argv[0];
    const auto slash = bench.find_last_of('/');
    if (slash != std::string::npos) bench = bench.substr(slash + 1);
    json_begin(a.json, bench, a);
  }
  return a;
}

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

namespace {

std::map<std::string, std::vector<PacketRecord>>& packet_cache() {
  static std::map<std::string, std::vector<PacketRecord>> cache;
  return cache;
}

// ------------------------------------------------------ JSON mirror ----
//
// Benches keep printing their paper-style tables; when --json is given the
// same figure headers and rows are mirrored here and serialized on exit, so
// run_all can diff BENCH_<name>.json across PRs without scraping stdout.

struct JsonSection {
  std::string figure;
  std::string caption;
  std::vector<std::vector<std::string>> rows;
};

struct JsonRecorder {
  bool active = false;
  bool written = false;
  std::string path;
  std::string bench;
  Args params;
  std::vector<JsonSection> sections;
};

JsonRecorder& recorder() {
  static JsonRecorder r;
  return r;
}

// %g prints bare "inf"/"nan", which is not JSON; map non-finite to null.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void json_begin(const std::string& path, const std::string& bench,
                const Args& args) {
  JsonRecorder& r = recorder();
  r.active = true;
  r.written = false;
  r.path = path;
  r.bench = bench;
  r.params = args;
  r.sections.clear();
  std::atexit(json_flush);
}

void json_flush() {
  JsonRecorder& r = recorder();
  if (!r.active || r.written) return;
  std::FILE* f = std::fopen(r.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", r.path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"rhhh-bench-table-v1\",\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", json_escape(r.bench).c_str());
  std::fprintf(f,
               "  \"params\": {\"scale\": %s, \"runs\": %d, \"eps\": %s, "
               "\"delta\": %s, \"theta\": %s, \"seed\": %llu},\n",
               json_num(r.params.scale).c_str(), r.params.runs,
               json_num(r.params.eps).c_str(), json_num(r.params.delta).c_str(),
               json_num(r.params.theta).c_str(),
               static_cast<unsigned long long>(r.params.seed));
  std::fprintf(f, "  \"sections\": [");
  for (std::size_t s = 0; s < r.sections.size(); ++s) {
    const JsonSection& sec = r.sections[s];
    std::fprintf(f, "%s\n    {\"figure\": \"%s\", \"caption\": \"%s\", \"rows\": [",
                 s == 0 ? "" : ",", json_escape(sec.figure).c_str(),
                 json_escape(sec.caption).c_str());
    for (std::size_t i = 0; i < sec.rows.size(); ++i) {
      std::fprintf(f, "%s\n      [", i == 0 ? "" : ",");
      for (std::size_t j = 0; j < sec.rows[i].size(); ++j) {
        std::fprintf(f, "%s\"%s\"", j == 0 ? "" : ", ",
                     json_escape(sec.rows[i][j]).c_str());
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "\n    ]}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  r.written = true;
}

const std::vector<PacketRecord>& trace_packets(const std::string& preset,
                                               std::size_t n) {
  auto& slot = packet_cache()[preset];
  if (slot.size() < n) {
    TraceGenerator gen(trace_preset(preset));
    slot = gen.generate(n);
  }
  return slot;
}

const std::vector<Key128>& trace_keys(const Hierarchy& h, const std::string& preset,
                                      std::size_t n) {
  // Key caches are per (preset, dims) since the mapping differs.
  static std::map<std::string, std::vector<Key128>> cache;
  const std::string id = preset + "/" + std::to_string(h.dims());
  auto& slot = cache[id];
  if (slot.size() < n) {
    const auto& packets = trace_packets(preset, n);
    slot.clear();
    slot.reserve(n);
    for (std::size_t i = 0; i < n; ++i) slot.push_back(h.key_of(packets[i]));
  }
  return slot;
}

std::vector<std::unique_ptr<HhhContender>> paper_roster(const Hierarchy& h,
                                                        double eps, double delta,
                                                        std::uint64_t seed) {
  LatticeParams lp;
  lp.eps = eps;
  lp.delta = delta;
  lp.seed = seed;
  std::vector<std::unique_ptr<HhhContender>> out;
  out.push_back(std::make_unique<LatticeContender>(h, LatticeMode::kRhhh, lp));
  LatticeParams lp10 = lp;
  lp10.V = 10 * static_cast<std::uint32_t>(h.size());
  out.push_back(std::make_unique<LatticeContender>(h, LatticeMode::kRhhh, lp10));
  out.push_back(std::make_unique<LatticeContender>(h, LatticeMode::kMst, lp));
  out.push_back(std::make_unique<TrieHhh>(h, AncestryMode::kPartial, eps));
  out.push_back(std::make_unique<TrieHhh>(h, AncestryMode::kFull, eps));
  return out;
}

void print_figure_header(const std::string& figure, const std::string& caption,
                         const Args& args) {
  if (recorder().active) recorder().sections.push_back({figure, caption, {}});
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", figure.c_str(), caption.c_str());
  std::printf("params: eps=%g delta=%g theta=%g runs=%d scale=%g\n",
              args.eps, args.delta, args.theta, args.runs, args.scale);
  std::printf("================================================================\n");
}

std::string ci_cell(const RunningStats& stats) {
  const Interval ci = stats.mean_ci(0.95);
  const double half = 0.5 * ci.width();
  char buf[64];
  if (stats.count() < 2) {
    std::snprintf(buf, sizeof buf, "%s", fmt(stats.mean()).c_str());
  } else {
    std::snprintf(buf, sizeof buf, "%s +-%s", fmt(stats.mean()).c_str(),
                  fmt(half).c_str());
  }
  return buf;
}

void print_row(const std::vector<std::string>& cells) {
  JsonRecorder& r = recorder();
  if (r.active) {
    if (r.sections.empty()) r.sections.push_back({"", "", {}});
    r.sections.back().rows.push_back(cells);
  }
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, i == 0 ? "%-26s" : "%16s", cells[i].c_str());
    line += buf;
  }
  std::printf("%s\n", line.c_str());
}

std::string xcell(const std::string& suffix) {
  std::string cell("x");
  cell += suffix;
  return cell;
}

std::string fmt(double v) {
  char buf[48];
  const double av = v < 0 ? -v : v;
  if (v == 0.0) {
    return "0";
  } else if (av >= 1e6 || av < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3g", v);
  } else if (av >= 100) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f", v);
  }
  return buf;
}

}  // namespace rhhh::bench
