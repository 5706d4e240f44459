// End-to-end benchmark program: runs one workload, prints a human-readable
// report and, as the last line of standard output, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A JSON report with the host fingerprint, the simulated
// ZU3EG statistics and the self-time table goes to --out-dir, and in a
// traced run the program's trace events as Chrome trace JSON beside it.
//
//   e2e_bench --workload paper416|serve4|demo64 --seed N --seconds S
//             --trace 0|1 --out-dir DIR

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gemm/kernels.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::percentile;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fingerprint() {
  const char* threads = std::getenv("TINCY_GEMM_THREADS");
  const auto flag = [](bool on) { return on ? "true" : "false"; };
  std::string s = "{\"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency());
  s += std::string(", \"avx2\": ") + flag(__builtin_cpu_supports("avx2"));
  s += std::string(", \"avx512f\": ") + flag(__builtin_cpu_supports("avx512f"));
  s += std::string(", \"avx512_vpopcntdq\": ") +
       flag(__builtin_cpu_supports("avx512vpopcntdq"));
  s += std::string(", \"avx512_vnni\": ") +
       flag(__builtin_cpu_supports("avx512vnni"));
  s += ", \"compiler\": " + json_str(TINCY_BENCH_COMPILER);
  s += ", \"build_type\": " + json_str(TINCY_BENCH_BUILD_TYPE);
  s += ", \"gemm_kernel\": " +
       json_str(tincy::gemm::kernel_name(
           tincy::gemm::resolve_kernel(tincy::gemm::Kernel::kAuto)));
  s += ", \"tincy_gemm_threads\": " + json_str(threads ? threads : "unset");
  return s + "}";
}

/// The end-to-end metrics from `t`: at_ref for the result, measured for
/// the report.
std::vector<Metric> end_to_end(const Outcome& o, const Outcome::Times& t) {
  return {
      {"frame_ms_p50", percentile(t.frame_ms, 0.50), "ms"},
      {"fps", t.fps, "1/s"},
      {"cpu_ms_per_frame", t.cpu_ms_per_frame, "ms"},
      {"setup_s", percentile(t.setup_s, 0.50), "s"},
      {"peak_rss_mb", o.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const Outcome& o) {
  std::vector<Metric> out;
  for (const auto& spec : perfbench::per_layer_specs())
    out.push_back({spec.name, o.per_layer.at(spec.name), spec.unit});
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += json_str(metrics[i].name) + ": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": " + json_str(metrics[i].unit) +
         "}";
  }
  return s + "}";
}

std::string list_json(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + number(v[i]);
  return s + "]";
}

std::string strings_json(const std::vector<std::string>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i)
    s += (i ? ",\n    " : "") + json_str(v[i]);
  return s + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload paper416|serve4|demo64 --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string out_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out-dir") out_dir = value;
    else return usage();
  }
  if (argc % 2 != 1 || args.workload.empty() || out_dir.empty() ||
      !(args.seconds > 0.0))
    return usage();

  try {
    std::filesystem::create_directories(out_dir);
    args.work_dir = out_dir;
    const std::string host = fingerprint();
    std::printf("# host %s\n", host.c_str());
    std::fflush(stdout);

    const Outcome o = perfbench::run_workload(args);

    const std::vector<Metric> e2e = end_to_end(o, o.at_ref);
    const std::vector<Metric> e2e_measured = end_to_end(o, o.measured);
    const std::vector<Metric> result = args.trace ? per_layer(o) : e2e;
    const bool correct = o.errors.empty() && o.failed == 0;

    const std::string stem = out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "");
    std::string sim = "{";
    for (const auto& [name, value] : o.simulated)
      sim += (sim.size() > 1 ? ", " : "") + json_str(name) + ": " +
             number(value);
    sim += "}";
    std::string report = "{\n  \"schema\": \"tincy.perfbench.v1\"";
    report += ",\n  \"workload\": " + json_str(args.workload);
    report += ",\n  \"seed\": " + std::to_string(args.seed);
    report += ",\n  \"seconds\": " + number(args.seconds);
    report += ",\n  \"trace\": " + std::string(args.trace ? "true" : "false");
    report += ",\n  \"host\": " + host;
    report += ",\n  \"correct\": " + std::string(correct ? "true" : "false");
    report += ",\n  \"attempted\": " + std::to_string(o.attempted);
    report += ",\n  \"failed\": " + std::to_string(o.failed);
    report += ",\n  \"errors\": " + strings_json(o.errors);
    report += ",\n  \"end_to_end\": " + metrics_json(e2e);
    report += ",\n  \"end_to_end_measured\": " + metrics_json(e2e_measured);
    // Report only: too noisy on a shared host to bound (README.md).
    report += ",\n  \"frame_ms_p90\": {\"at_ref\": " +
              number(o.at_ref.frame_ms_p90) + ", \"measured\": " +
              number(o.measured.frame_ms_p90) + "}";
    report += ",\n  \"host_speed\": " + number(o.host_speed);
    std::string segments = "[";
    for (size_t i = 0; i < o.segments.size(); ++i)
      segments += (i ? ", " : "") + list_json(o.segments[i]);
    report += ",\n  \"segments\": " + segments + "]";
    report += ",\n  \"simulated\": " + sim;
    report += ",\n  \"setup_s\": " + list_json(o.measured.setup_s);
    report += ",\n  \"frame_ms\": " + list_json(o.measured.frame_ms);
    if (args.trace) {
      report += ",\n  \"per_layer\": " + metrics_json(per_layer(o));
      report += ",\n  \"self_time_table\": " + strings_json(o.self_time_table);
      tincy::telemetry::write_chrome_trace(o.trace_events,
                                           stem + ".trace.json");
    }
    report += "\n}\n";
    std::ofstream file(stem + ".report.json");
    file << report;
    if (!file.flush())
      throw std::runtime_error("cannot write " + stem + ".report.json");

    std::printf("# workload %s seed %llu: %zu frames timed, attempted %lld, "
                "failed %lld\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                o.measured.frame_ms.size(),
                static_cast<long long>(o.attempted),
                static_cast<long long>(o.failed));
    std::printf("# %-18s %14s %14s   host speed %.3f\n", "metric",
                "at ref speed", "measured", o.host_speed);
    for (size_t i = 0; i < e2e.size(); ++i)
      std::printf("# %-18s %14.4f %14.4f %s\n", e2e[i].name.c_str(),
                  e2e[i].value, e2e_measured[i].value, e2e[i].unit.c_str());
    std::printf("# %-18s %14.4f %14.4f ms (report only)\n", "frame_ms_p90",
                o.at_ref.frame_ms_p90, o.measured.frame_ms_p90);
    for (const auto& [name, value] : o.simulated)
      std::printf("# simulated %-26s %.17g\n", name.c_str(), value);
    for (const auto& line : o.self_time_table)
      std::printf("# %s\n", line.c_str());
    for (const auto& e : o.errors)
      std::printf("# FAILED CHECK: %s\n", e.c_str());
    std::printf("# report %s.report.json\n", stem.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(o.attempted),
                static_cast<long long>(o.failed),
                metrics_json(result).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
