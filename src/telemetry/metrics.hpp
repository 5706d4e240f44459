#pragma once

/// \file metrics.hpp
/// The unified stats substrate: a thread-safe MetricsRegistry holding
/// counters, gauges and latency histograms, plus RAII ScopedTimer spans.
///
/// The paper's headline results are per-stage numbers — the Table III
/// stage latencies, the Fig. 6 pipeline occupancy, the §III speedup
/// ladder. This subsystem gives every hot path (Network::forward, the
/// serve::StreamServer workers behind the demo pipeline,
/// OffloadLayer::forward, the gemm kernels) one way to report them; a
/// telemetry::Snapshot is the only stats surface.
///
/// Naming convention (see docs/observability.md):
///   net.forward.ms              whole-network forward latency
///   net.layer.<i>.<type>.ms     per-layer latency (Table III rows)
///   serve.session.<name>.*      frames / latency_ms / fps and
///                               stage.<stage>.busy_ms / wait_ms (the
///                               demo pipeline is session "pipeline")
///   offload.<library>.*         forward_ms / frames / ops per backend
///   gemm.*                      im2col vs. GEMM split of the conv paths

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tincy::telemetry {

/// Monotonically increasing integer metric (events, jobs, ops).
class Counter {
 public:
  void add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins floating-point metric (fps, occupancy, config values).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregated view of a histogram at snapshot time. Quantiles are
/// estimated from log-scaled buckets (≤ ~9 % relative error); count, sum,
/// min, max and last are exact.
struct HistogramStats {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;  ///< most recently recorded value
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// Latency histogram with log-scaled buckets covering 1 µs .. ~100 s
/// (values are conventionally milliseconds). Thread-safe.
class Histogram {
 public:
  /// Bucket i spans [kBase·r^(i-1), kBase·r^i) with r = 2^(1/4); two
  /// overflow buckets catch values below/above the covered range.
  static constexpr int kNumBuckets = 112;

  void record(double value);
  HistogramStats stats() const;
  void reset();

  int64_t count() const;
  double sum() const;
  double last() const;
  /// Quantile estimate in [0, 1]; exact at q=1 (returns max).
  double quantile(double q) const;

 private:
  static int bucket_index(double value);
  double quantile_locked(double q) const;

  mutable std::mutex mutex_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double last_ = 0.0;
  int64_t buckets_[kNumBuckets] = {};
};

/// Shape of a sliding window: `window` of history kept as `slices`
/// rotating sub-buckets (finer slices decay more smoothly).
struct WindowOptions {
  std::chrono::milliseconds window{10000};
  int slices = 10;
};

/// Histogram over only the last `window` of wall-clock time: the live
/// tail behind `*.window` metrics (last-10s p99 etc.). Same log-scaled
/// buckets and stats surface as Histogram; samples expire as their slice
/// rotates out. The `*_at` overloads take an explicit steady-clock time
/// so decay is testable against a scripted clock. Thread-safe.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(WindowOptions opts = {});
  ~WindowedHistogram();  // out-of-line: Slice is incomplete here

  void record(double value);
  void record_at(double value, std::chrono::steady_clock::time_point now);
  HistogramStats stats() const;
  HistogramStats stats_at(std::chrono::steady_clock::time_point now) const;
  void reset();

 private:
  struct Slice;
  int64_t slice_of(std::chrono::steady_clock::time_point now) const;
  HistogramStats stats_locked(int64_t current_slice) const;

  mutable std::mutex mutex_;
  WindowOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Slice> slices_;
};

/// Events-per-second over only the last `window` (the live fps gauge).
/// Thread-safe; `*_at` overloads exist for scripted-clock tests.
class WindowedRate {
 public:
  explicit WindowedRate(WindowOptions opts = {});

  void add(int64_t n = 1);
  void add_at(int64_t n, std::chrono::steady_clock::time_point now);
  double per_second() const;
  double per_second_at(std::chrono::steady_clock::time_point now) const;
  void reset();

 private:
  struct Slice {
    int64_t tag = -1;  ///< absolute slice index, -1 when empty
    int64_t count = 0;
  };
  int64_t slice_of(std::chrono::steady_clock::time_point now) const;

  mutable std::mutex mutex_;
  WindowOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Slice> slices_;
};

/// Point-in-time sample of one named metric.
struct CounterSample {
  std::string name;
  int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  HistogramStats stats;
};

/// The one stats surface every component returns: a consistent,
/// name-sorted sample of a registry.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Lookup helpers; null / 0 when the metric is absent.
  const CounterSample* find_counter(std::string_view name) const;
  const GaugeSample* find_gauge(std::string_view name) const;
  const HistogramSample* find_histogram(std::string_view name) const;
  int64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  /// All histogram samples whose name starts with `prefix`.
  std::vector<const HistogramSample*> histograms_with_prefix(
      std::string_view prefix) const;
};

/// Thread-safe registry of named metrics. Metric objects are created on
/// first access and live as long as the registry; returned references are
/// stable, so hot paths should resolve them once and keep the pointer.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Windowed variants (conventionally named `<base>.window`). They show
  /// up in snapshot() as an ordinary histogram sample / gauge (rate in
  /// events-per-second), so exports and check tools need no new schema.
  WindowedHistogram& windowed_histogram(const std::string& name,
                                        WindowOptions opts = {});
  WindowedRate& windowed_rate(const std::string& name,
                              WindowOptions opts = {});

  /// Consistent sample of every metric (optionally restricted to names
  /// starting with `prefix`), sorted by name.
  Snapshot snapshot(std::string_view prefix = {}) const;

  /// Zeroes every metric whose name starts with `prefix` (all when empty).
  /// Metric objects stay registered; cached pointers remain valid.
  void reset(std::string_view prefix = {});

  /// The process-wide default registry used by components that are not
  /// handed an explicit one (gemm kernels, the CLI).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> windowed_hists_;
  std::map<std::string, std::unique_ptr<WindowedRate>> windowed_rates_;
};

/// RAII span: records the elapsed wall-clock milliseconds into a
/// histogram on destruction (or explicit stop()).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist)
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}

  /// Convenience: resolves `registry.histogram(name)` first.
  ScopedTimer(MetricsRegistry& registry, const std::string& name)
      : ScopedTimer(registry.histogram(name)) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Ends the span early; returns the recorded milliseconds. Idempotent.
  double stop();

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tincy::telemetry
