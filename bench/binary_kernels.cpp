// Host benchmark of the fabric simulator's bit-plane popcount engine
// (fabric/bitserial.hpp) on the seven W1A3 hidden layers of Tincy YOLO
// @416 — the layers the paper offloads to the single generalized MVTU
// engine (§III-A).
//
//   binary_kernels                  per-layer table
//   binary_kernels --gate [out.json]
//
// Every layer runs through the per-column path (SlidingWindowUnit emits
// one footprint per output pixel, Mvtu::compute_batch thresholds it: the
// accelerator's execution before the engine existed and now its oracle)
// and through the engine once per dispatchable micro-kernel tier on one
// thread, plus kAuto on the shared pool. Each row reports the engine's
// words per bit-plane of a window (K·ceil(K·C/64): what the popcounts
// touch, padding included), host ms, GOP/s (2·filters·C·K²·pixels ops)
// and code parity with the per-column path.
// The gate requires parity everywhere and the kAuto hidden stack to beat
// the per-column stack by >= 30x on the shared pool and >= 10x on one
// thread (the TINCY_GEMM_THREADS=1 configuration), and writes the rows to
// BENCH_binary.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "fabric/bitserial.hpp"
#include "fabric/mvtu.hpp"
#include "fabric/sliding_window.hpp"

using namespace tincy;
using namespace tincy::fabric;

namespace {

/// One Tincy YOLO @416 hidden conv: C×HW×HW input, K=3, stride 1, pad 1.
struct HiddenLayer {
  int64_t channels, hw, filters;
};
constexpr HiddenLayer kTincy416[] = {{16, 208, 64},   {64, 104, 64},
                                     {64, 52, 128},   {128, 26, 256},
                                     {256, 13, 512},  {512, 13, 512},
                                     {512, 13, 512}};

struct LayerData {
  gemm::ConvGeometry g;
  quant::BinaryMatrix weights;
  std::vector<ThresholdChannel> thresholds;
  std::vector<uint8_t> input;
  double ops = 0.0;
};

LayerData make_layer(const HiddenLayer& l, uint64_t seed) {
  Rng rng(seed);
  LayerData d;
  d.g = {l.channels, l.hw, l.hw, 3, 1, 1};
  Tensor w(Shape{l.filters, d.g.patch_size()});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  d.weights = quant::binarize(w);
  // 3-bit thresholds around the accumulator spread, some flipped.
  const int spread = static_cast<int>(
      std::sqrt(static_cast<double>(d.g.patch_size())) * 7.0);
  d.thresholds.resize(static_cast<size_t>(l.filters));
  for (size_t r = 0; r < d.thresholds.size(); ++r) {
    d.thresholds[r].ascending = r % 5 != 0;
    for (int k = 0; k < 7; ++k)
      d.thresholds[r].thresholds.push_back(rng.uniform_int(-spread, spread));
    std::sort(d.thresholds[r].thresholds.begin(),
              d.thresholds[r].thresholds.end());
  }
  d.input.resize(static_cast<size_t>(l.channels * l.hw * l.hw));
  for (auto& c : d.input) c = static_cast<uint8_t>(rng.uniform_int(0, 7));
  d.ops = 2.0 * static_cast<double>(l.filters) *
          static_cast<double>(d.g.patch_size()) *
          static_cast<double>(d.g.num_patches());
  return d;
}

/// The per-column path: one SWU footprint and one MVTU pass per output
/// pixel, scattered into CHW codes.
void per_column(const LayerData& d, const Mvtu& mvtu,
                std::vector<uint8_t>& out) {
  const SlidingWindowUnit swu(d.g);
  const int64_t n = swu.num_columns(), rows = mvtu.rows();
  std::vector<uint8_t> column(static_cast<size_t>(swu.column_size()));
  std::vector<uint8_t> codes(static_cast<size_t>(rows));
  for (int64_t j = 0; j < n; ++j) {
    swu.emit_column_batch(d.input, 1, j, column);
    mvtu.compute_batch(column, 1, codes);
    for (int64_t r = 0; r < rows; ++r)
      out[static_cast<size_t>(r * n + j)] = codes[static_cast<size_t>(r)];
  }
}

template <typename F>
double best_of_ms(int trials, F&& fn) {
  fn();  // warm-up: sizes the scratch arenas, wakes the pool
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string variant;  ///< tier name, "+threads" suffix on the shared pool
  double ms = 0.0;
  bool parity = false;
};

int run(const char* json_path, bool gate) {
  const int kTrials = 3;
  const double kMinThreaded = 30.0, kMinSingleThread = 10.0;
  const int threads = core::ThreadPool::shared().threads();
  const PopcountTier dispatched = resolve_popcount_tier(PopcountTier::kAuto);

  double column_total = 0.0, auto_st_total = 0.0, auto_mt_total = 0.0;
  bool parity_all = true;
  std::ostringstream js;
  js << "{\n  \"schema\": \"tincy-bench-binary-v1\",\n"
     << "  \"network\": \"Tincy YOLO @416, W1A3 hidden layers\",\n"
     << "  \"threads\": " << threads << ",\n  \"dispatched_tier\": \""
     << popcount_tier_name(dispatched) << "\",\n  \"layers\": [";

  std::printf("%-6s %-14s %5s %-18s %10s %9s %s\n", "layer", "C,HW->F",
              "words", "variant", "ms", "GOP/s", "parity");
  for (size_t li = 0; li < std::size(kTincy416); ++li) {
    const HiddenLayer& l = kTincy416[li];
    const LayerData d = make_layer(l, 4160 + li);
    const int64_t out_numel = l.filters * d.g.num_patches();
    const Mvtu mvtu(d.weights, d.thresholds, 3);
    const BitSerialEngine engine(d.g, d.weights, d.thresholds, 3);

    std::vector<uint8_t> oracle(static_cast<size_t>(out_numel));
    const auto t0 = std::chrono::steady_clock::now();
    per_column(d, mvtu, oracle);
    const double column_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    std::vector<Row> rows{{"per-column", column_ms, true}};

    std::vector<uint8_t> got(static_cast<size_t>(out_numel));
    const auto engine_row = [&](const std::string& name,
                                const BitSerialOptions& opts) {
      std::fill(got.begin(), got.end(), 0xEE);
      engine.run(d.input, 1, got, opts);
      const bool parity = got == oracle;
      const double ms = best_of_ms(kTrials, [&] {
        engine.run(d.input, 1, got, opts);
      });
      rows.push_back({name, ms, parity});
      parity_all = parity_all && parity;
      return ms;
    };
    for (const PopcountTier tier : dispatchable_popcount_tiers()) {
      BitSerialOptions st;
      st.tier = tier;
      st.min_ops_to_thread = INT64_MAX;
      const double ms = engine_row(popcount_tier_name(tier), st);
      if (tier == dispatched) auto_st_total += ms;
    }
    auto_mt_total += engine_row(
        std::string(popcount_tier_name(dispatched)) + "+threads", {});
    column_total += column_ms;

    char shape[32];
    std::snprintf(shape, sizeof shape, "%lld,%lld->%lld",
                  static_cast<long long>(l.channels),
                  static_cast<long long>(l.hw),
                  static_cast<long long>(l.filters));
    js << (li ? "," : "") << "\n    {\"layer\": " << li << ", \"channels\": "
       << l.channels << ", \"hw\": " << l.hw << ", \"filters\": " << l.filters
       << ", \"words_per_plane\": " << engine.words_per_plane()
       << ", \"gop\": " << d.ops / 1e9 << ", \"rows\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const double gops = d.ops / (r.ms * 1e6);
      std::printf("%-6zu %-14s %5lld %-18s %10.3f %9.1f %s\n", li, shape,
                  static_cast<long long>(engine.words_per_plane()),
                  r.variant.c_str(), r.ms, gops, r.parity ? "ok" : "FAIL");
      js << (i ? ", " : "") << "\n      {\"variant\": \"" << r.variant
         << "\", \"host_ms\": " << r.ms << ", \"gops\": " << gops
         << ", \"parity\": " << (r.parity ? "true" : "false") << "}";
    }
    js << "]}";
  }

  const double speedup_mt = column_total / auto_mt_total;
  const double speedup_st = column_total / auto_st_total;
  const bool pass = parity_all && speedup_mt >= kMinThreaded &&
                    speedup_st >= kMinSingleThread;
  std::printf(
      "hidden stack: per-column %.1f ms, %s %.2f ms on one thread (%.1fx, "
      "floor %.0fx), %.2f ms on %d threads (%.1fx, floor %.0fx)\n",
      column_total, popcount_tier_name(dispatched), auto_st_total, speedup_st,
      kMinSingleThread, auto_mt_total, threads, speedup_mt, kMinThreaded);
  js << "\n  ],\n  \"stack\": {\"per_column_ms\": " << column_total
     << ", \"auto_single_thread_ms\": " << auto_st_total
     << ", \"auto_threaded_ms\": " << auto_mt_total
     << ", \"speedup_single_thread\": " << speedup_st
     << ", \"speedup_threaded\": " << speedup_mt
     << ", \"min_speedup_single_thread\": " << kMinSingleThread
     << ", \"min_speedup_threaded\": " << kMinThreaded
     << "},\n  \"parity\": " << (parity_all ? "true" : "false")
     << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";

  if (json_path) {
    std::ofstream out(json_path);
    out << js.str();
    if (!out.good()) {
      std::fprintf(stderr, "binary gate: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  if (!gate) return parity_all ? 0 : 1;
  std::printf("binary gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gate") == 0)
    return run(argc > 2 ? argv[2] : "BENCH_binary.json", true);
  if (argc > 1) {
    std::fprintf(stderr, "usage: binary_kernels [--gate [out.json]]\n");
    return 2;
  }
  return run(nullptr, false);
}
