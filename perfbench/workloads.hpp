#pragma once

// The three workloads of the end-to-end benchmark (see README.md):
//   paper416 — Tincy YOLO @416, W8A8 edge layers on the CPU, the W1A3
//              hidden stack behind one [offload] library=fabric.so layer;
//              one client, one frame at a time.
//   serve4   — the same heterogeneous network @128, four camera streams
//              on one serve::StreamServer with four workers.
//   demo64   — `tincy demo`: float Tincy @64, CpuProfile::kOptimized,
//              the Fig. 5 pipeline with four workers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< where set-up writes its binparam directories
};

/// Everything one run measured and checked.
struct Outcome {
  /// Times of the untraced timed window and of the set-ups.
  struct Times {
    std::vector<double> frame_ms;  ///< capture/submit -> delivery, per frame
    double frame_ms_p90 = 0.0;
    double fps = 0.0;
    double cpu_ms_per_frame = 0.0;
    std::vector<double> setup_s;  ///< one entry per set-up repetition
  };
  Times measured;  ///< as the clocks read them
  /// The same at the reference host speed: each set-up and each segment
  /// of the window scaled by the host-speed probes around it (see
  /// README.md, "Host-speed probe"). These are the result metrics.
  Times at_ref;
  /// Median over the window's segments of the host speed: the probe's
  /// reference time over its time. Above 1 the host ran faster than the
  /// reference.
  double host_speed = 1.0;
  /// Each segment of the window as measured: frames, wall ms, CPU ms, its
  /// frame_ms p50, and the probe's wall ms before and after it and CPU ms
  /// before and after it.
  std::vector<std::vector<double>> segments;
  double peak_rss_mb = 0.0;  ///< median over segments of their peak RSS

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  ///< every failed check, human readable

  /// Simulated ZU3EG statistics (zu3eg_frame_ms, fabric.*): identical on
  /// every set-up repetition, or the run fails.
  std::map<std::string, double> simulated;

  // Traced run only.
  std::map<std::string, double> per_layer;
  std::vector<std::string> self_time_table;
  /// The program's trace events (TraceCollector::global()) of the traced
  /// section, written out as Chrome trace JSON.
  std::vector<tincy::telemetry::TraceEvent> trace_events;
};

/// Names and units of the per-layer metrics, in report order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& per_layer_specs();

/// The q-quantile of `v` by linear interpolation between closest ranks;
/// 0 for an empty `v`.
double percentile(std::vector<double> v, double q);

/// Runs `args.workload`; throws tincy::Error for an unknown workload.
Outcome run_workload(const Args& args);

}  // namespace perfbench
