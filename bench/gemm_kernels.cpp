// Host microbenchmarks of the §III-D kernel progression for the first
// convolutional layer. Absolute times are host times, not A53 times; the
// *relative* ordering (generic < fused < specialized; quantized variants
// improving data locality) is the property being validated against the
// paper's 620 → 295 → 160 → 140 → 120 ms ladder.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "gemm/first_layer.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/gemm_ref.hpp"
#include "gemm/gemm_simd.hpp"
#include "quant/affine.hpp"

using namespace tincy;

namespace {

struct Fixture {
  // First-layer geometry at reduced resolution (3 channels, K=3) so a
  // full google-benchmark run stays quick on any host.
  gemm::ConvGeometry g{3, 104, 104, 3, 1, 1};
  Tensor image{Shape{3, 104, 104}};
  Tensor weights{Shape{16, 27}};
  Tensor bias{Shape{16}};
  Tensor out;
  quant::AffineParams in_params;
  gemm::SymmetricWeights sym;

  Fixture() {
    Rng rng(1);
    for (int64_t i = 0; i < image.numel(); ++i)
      image[i] = rng.uniform(0.0f, 1.0f);
    for (int64_t i = 0; i < weights.numel(); ++i) weights[i] = rng.normal();
    for (int64_t i = 0; i < bias.numel(); ++i) bias[i] = rng.normal();
    out = Tensor(Shape{16, g.num_patches()});
    in_params = quant::choose_affine_params(0.0f, 1.0f);
    sym = gemm::quantize_symmetric(weights);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_Conv_GenericIm2colGemm(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    gemm::conv_via_im2col_f32(f.image.data(), f.g, f.weights.data(), 16,
                              f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_Conv_GenericIm2colGemm);

void BM_Conv_FusedSlicedF32(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    gemm::fused_conv_f32(f.image.data(), f.g, f.weights.data(), 16,
                         f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_Conv_FusedSlicedF32);

void BM_Conv_LowpGemm(benchmark::State& state) {
  auto& f = fixture();
  const auto wp = quant::choose_affine_params(-2.0f, 2.0f);
  const TensorU8 wq = quant::quantize(f.weights, wp);
  for (auto _ : state) {
    gemm::conv_lowp_f32out(f.image.data(), f.g, f.in_params, wq.data(), wp,
                           16, f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_Conv_LowpGemm);

void BM_Conv_FusedLowp(benchmark::State& state) {
  auto& f = fixture();
  const auto wp = quant::choose_affine_params(-2.0f, 2.0f);
  const TensorU8 wq = quant::quantize(f.weights, wp);
  for (auto _ : state) {
    gemm::fused_conv_lowp_f32out(f.image.data(), f.g, f.in_params, wq.data(),
                                 wp, 16, f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_Conv_FusedLowp);

void BM_FirstLayer_SpecF32(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    gemm::first_layer_f32(f.image.data(), f.g, f.weights.data(),
                          f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_FirstLayer_SpecF32);

void BM_FirstLayer_SpecAcc32(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    gemm::first_layer_lowp_acc32(f.image.data(), f.g, f.in_params, f.sym,
                                 f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_FirstLayer_SpecAcc32);

void BM_FirstLayer_SpecAcc16(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    gemm::first_layer_lowp_acc16(f.image.data(), f.g, f.in_params, f.sym,
                                 f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_FirstLayer_SpecAcc16);

// The algorithmic simplification (d): stride 2 quarters the applications.
void BM_FirstLayer_SpecAcc16_Stride2(benchmark::State& state) {
  auto& f = fixture();
  gemm::ConvGeometry g2 = f.g;
  g2.stride = 2;
  Tensor out(Shape{16, g2.num_patches()});
  for (auto _ : state) {
    gemm::first_layer_lowp_acc16(f.image.data(), g2, f.in_params, f.sym,
                                 f.bias.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FirstLayer_SpecAcc16_Stride2);

// --- Raw GEMM variants at a hidden-layer-like size (128 × 2704 × 576) ---

struct GemmFixture {
  static constexpr int64_t M = 128, N = 2704, K = 576;
  Tensor a{Shape{M, K}}, b{Shape{K, N}}, c{Shape{M, N}};
  GemmFixture() {
    Rng rng(2);
    for (int64_t i = 0; i < a.numel(); ++i) a[i] = rng.normal();
    for (int64_t i = 0; i < b.numel(); ++i) b[i] = rng.normal();
  }
};

GemmFixture& gemm_fixture() {
  static GemmFixture f;
  return f;
}

void BM_Gemm_Reference(benchmark::State& state) {
  auto& f = gemm_fixture();
  for (auto _ : state) {
    gemm::gemm_ref(f.M, f.N, f.K, f.a.data(), f.b.data(), f.c.data());
    benchmark::DoNotOptimize(f.c.data());
  }
}
BENCHMARK(BM_Gemm_Reference);

void BM_Gemm_Lanes(benchmark::State& state) {
  auto& f = gemm_fixture();
  for (auto _ : state) {
    gemm::gemm_f32_lanes(f.M, f.N, f.K, f.a.data(), f.b.data(), f.c.data());
    benchmark::DoNotOptimize(f.c.data());
  }
}
BENCHMARK(BM_Gemm_Lanes);

void BM_Gemm_Blocked(benchmark::State& state) {
  auto& f = gemm_fixture();
  for (auto _ : state) {
    gemm::gemm_f32_blocked(f.M, f.N, f.K, f.a.data(), f.b.data(), f.c.data());
    benchmark::DoNotOptimize(f.c.data());
  }
}
BENCHMARK(BM_Gemm_Blocked);

// --- Quantized GEMM engine (packed/tiled/threaded, gemm_packed.hpp) ---

struct LowpGemmFixture {
  static constexpr int64_t M = 128, N = 2704, K = 576;
  std::vector<uint8_t> a, b;
  std::vector<int32_t> c;
  int32_t za = 7, zb = 131;
  gemm::PackedLhs lhs;
  LowpGemmFixture() : a(M * K), b(K * N), c(M * N) {
    Rng rng(3);
    for (auto& v : a) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
    for (auto& v : b) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
    lhs = gemm::pack_lhs(a.data(), M, K, za);
  }
};

LowpGemmFixture& lowp_fixture() {
  static LowpGemmFixture f;
  return f;
}

void BM_GemmLowp_Naive(benchmark::State& state) {
  auto& f = lowp_fixture();
  for (auto _ : state) {
    gemm::gemm_lowp_i32(f.M, f.N, f.K, f.a.data(), f.za, f.b.data(), f.zb,
                        f.c.data());
    benchmark::DoNotOptimize(f.c.data());
  }
}
BENCHMARK(BM_GemmLowp_Naive);

void BM_GemmLowp_Packed(benchmark::State& state) {
  auto& f = lowp_fixture();
  gemm::GemmOptions opts;
  opts.allow_threads = false;
  for (auto _ : state) {
    gemm::gemm_lowp_packed(f.lhs, f.b.data(), f.zb, f.N, f.c.data(), opts);
    benchmark::DoNotOptimize(f.c.data());
  }
}
BENCHMARK(BM_GemmLowp_Packed);

void BM_GemmLowp_PackedThreaded(benchmark::State& state) {
  auto& f = lowp_fixture();
  for (auto _ : state) {
    gemm::gemm_lowp_packed(f.lhs, f.b.data(), f.zb, f.N, f.c.data(), {});
    benchmark::DoNotOptimize(f.c.data());
  }
}
BENCHMARK(BM_GemmLowp_PackedThreaded);

// --- Self-checking performance gate (tier2-gemm) ----------------------
//
// `gemm_kernels --gate [out.json]` times the packed engine against the
// naive gemm_lowp_i32 oracle on the Tincy YOLO first/last CPU-layer
// shapes, asserts bit-exact parity, enforces the speedup floors
// (packed+threaded >= 3x, single-threaded pack+tile >= 1.5x), checks the
// first16_acc16 engine route against the first_layer_lowp_acc16 lane model
// (bit-identical on every tier, >= 3x on one thread), and writes a
// baseline-vs-packed-vs-threaded report to BENCH_gemm.json.

struct GateShape {
  const char* name;
  int64_t M, N, K;
};

template <typename F>
double best_of_ms(int trials, F&& fn) {
  // One untimed warmup run: the first packed call per shape faults in the
  // panel scratch arenas and the LHS panel cache, a one-off cost that
  // used to land on whichever variant happened to be timed first and
  // skew the cross-variant comparison.
  fn();
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

int run_gate(const char* json_path) {
  // Layer 0 runs at the reduced 104x104 benchmark resolution (same
  // geometry ratio as 416x416, 16x faster to time); layer 15 is the
  // exact Tincy YOLO output conv (125 filters over 13x13 at K=1024).
  const GateShape shapes[] = {
      {"layer0", 16, 104 * 104, 27},
      {"layerlast", 125, 13 * 13, 1024},
  };
  const int kTrials = 5;
  const double kMinThreadedSpeedup = 3.0;
  const double kMinSingleThreadSpeedup = 1.5;
  // Micro-kernel floor: the kAuto-dispatched SIMD variant must beat the
  // scalar packed path (same packing, same tiling, vectorization off) by
  // this much on every gate shape — and kAuto must actually have picked
  // a SIMD variant.
  const double kMinKernelSpeedup = 1.5;
  const int threads = core::ThreadPool::shared().threads();
  const gemm::Kernel dispatched = gemm::resolve_kernel(gemm::Kernel::kAuto);

  bool pass = true;
  std::ostringstream js;
  js << "{\n  \"schema\": \"tincy-bench-gemm-v2\",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"dispatched_kernel\": \"" << gemm::kernel_name(dispatched)
     << "\",\n"
     << "  \"min_speedup_threaded\": " << kMinThreadedSpeedup << ",\n"
     << "  \"min_speedup_single_thread\": " << kMinSingleThreadSpeedup
     << ",\n  \"min_speedup_kernel\": " << kMinKernelSpeedup
     << ",\n  \"shapes\": [";

  bool first_shape = true;
  for (const auto& s : shapes) {
    Rng rng(42);
    const int32_t za = 7, zb = 131;
    std::vector<uint8_t> A(s.M * s.K), B(s.K * s.N);
    for (auto& v : A) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
    for (auto& v : B) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
    std::vector<int32_t> ref(s.M * s.N), got(s.M * s.N);

    // Bit-exact parity: packed engine vs the naive i32 oracle, and the
    // 16-bit shift-4 fast path vs its scalar oracle (both wrap/saturate
    // identically, so parity holds for any zero points).
    gemm::gemm_lowp_i32(s.M, s.N, s.K, A.data(), za, B.data(), zb, ref.data());
    gemm::gemm_lowp_packed(s.M, s.N, s.K, A.data(), za, B.data(), zb,
                           got.data(), {});
    const bool parity_i32 = ref == got;

    gemm::gemm_lowp_i32_shift4(s.M, s.N, s.K, A.data(), za, B.data(), zb,
                               ref.data());
    gemm::GemmOptions shift4_opts;
    shift4_opts.acc = gemm::Accumulator::kI16Shift4;
    gemm::gemm_lowp_packed(s.M, s.N, s.K, A.data(), za, B.data(), zb,
                           got.data(), shift4_opts);
    const bool parity_shift4 = ref == got;

    const double naive_ms = best_of_ms(kTrials, [&] {
      gemm::gemm_lowp_i32(s.M, s.N, s.K, A.data(), za, B.data(), zb,
                          got.data());
    });
    // Single-threaded, per-call pack: isolates the pack+tile win.
    gemm::GemmOptions st;
    st.allow_threads = false;
    const double packed_st_ms = best_of_ms(kTrials, [&] {
      gemm::gemm_lowp_packed(s.M, s.N, s.K, A.data(), za, B.data(), zb,
                             got.data(), st);
    });
    // Full engine: weights packed once (as the layer caches do), threads on.
    const gemm::PackedLhs lhs = gemm::pack_lhs(A.data(), s.M, s.K, za);
    const double threaded_ms = best_of_ms(kTrials, [&] {
      gemm::gemm_lowp_packed(lhs, B.data(), zb, s.N, got.data(), {});
    });

    // Per-micro-kernel-variant rows: cached LHS, threads off, identical
    // packing — the only difference between rows is the micro-kernel, so
    // scalar vs kAuto isolates the SIMD win the tentpole claims.
    struct KernelRow {
      gemm::Kernel k;
      double ms = 0.0;
      bool parity = false;
    };
    gemm::gemm_lowp_i32(s.M, s.N, s.K, A.data(), za, B.data(), zb, ref.data());
    std::vector<KernelRow> krows;
    double scalar_ms = 0.0, auto_ms = 0.0;
    bool kernel_parity = true;
    for (const gemm::Kernel k : gemm::dispatchable_kernels()) {
      gemm::GemmOptions ko;
      ko.allow_threads = false;
      ko.kernel = k;
      std::fill(got.begin(), got.end(), 0);
      gemm::gemm_lowp_packed(lhs, B.data(), zb, s.N, got.data(), ko);
      const bool kp = ref == got;
      kernel_parity = kernel_parity && kp;
      const double ms = best_of_ms(kTrials, [&] {
        gemm::gemm_lowp_packed(lhs, B.data(), zb, s.N, got.data(), ko);
      });
      if (k == gemm::Kernel::kScalar) scalar_ms = ms;
      if (k == dispatched) auto_ms = ms;
      krows.push_back({k, ms, kp});
    }
    const double speedup_kernel = auto_ms > 0.0 ? scalar_ms / auto_ms : 0.0;
    const bool kernels_ok = kernel_parity &&
                            dispatched != gemm::Kernel::kScalar &&
                            speedup_kernel >= kMinKernelSpeedup;

    const double mflop = 2.0 * s.M * s.N * s.K / 1e6;
    const double speedup_st = naive_ms / packed_st_ms;
    const double speedup_threaded = naive_ms / threaded_ms;
    const bool shape_ok = parity_i32 && parity_shift4 && kernels_ok &&
                          speedup_st >= kMinSingleThreadSpeedup &&
                          speedup_threaded >= kMinThreadedSpeedup;
    pass = pass && shape_ok;

    std::printf(
        "%-9s M=%-4lld N=%-6lld K=%-5lld parity(i32)=%s parity(shift4)=%s\n"
        "          naive %8.3f ms (%7.0f MFLOP/s)\n"
        "          packed-1t %8.3f ms (%7.0f MFLOP/s)  %.2fx  [floor %.1fx]\n"
        "          threaded  %8.3f ms (%7.0f MFLOP/s)  %.2fx  [floor %.1fx]"
        "  -> %s\n",
        s.name, static_cast<long long>(s.M), static_cast<long long>(s.N),
        static_cast<long long>(s.K), parity_i32 ? "ok" : "FAIL",
        parity_shift4 ? "ok" : "FAIL", naive_ms, mflop / naive_ms * 1e3,
        packed_st_ms, mflop / packed_st_ms * 1e3, speedup_st,
        kMinSingleThreadSpeedup, threaded_ms, mflop / threaded_ms * 1e3,
        speedup_threaded, kMinThreadedSpeedup, shape_ok ? "PASS" : "FAIL");
    for (const KernelRow& r : krows) {
      std::printf(
          "          kernel %-7s %8.3f ms (%7.0f MFLOP/s)  %.2fx vs scalar"
          "  parity=%s%s\n",
          gemm::kernel_name(r.k), r.ms, mflop / r.ms * 1e3, scalar_ms / r.ms,
          r.parity ? "ok" : "FAIL",
          r.k == dispatched ? "  <- kAuto" : "");
    }
    std::printf("          kernel gate %.2fx (floor %.1fx, dispatched=%s)\n",
                speedup_kernel, kMinKernelSpeedup,
                gemm::kernel_name(dispatched));

    js << (first_shape ? "" : ",") << "\n    {\"name\": \"" << s.name
       << "\", \"M\": " << s.M << ", \"N\": " << s.N << ", \"K\": " << s.K
       << ",\n     \"naive_ms\": " << naive_ms
       << ", \"packed_single_thread_ms\": " << packed_st_ms
       << ", \"packed_threaded_ms\": " << threaded_ms
       << ",\n     \"naive_mflops\": " << mflop / naive_ms * 1e3
       << ", \"packed_single_thread_mflops\": " << mflop / packed_st_ms * 1e3
       << ", \"packed_threaded_mflops\": " << mflop / threaded_ms * 1e3
       << ",\n     \"speedup_single_thread\": " << speedup_st
       << ", \"speedup_threaded\": " << speedup_threaded
       << ", \"parity_i32\": " << (parity_i32 ? "true" : "false")
       << ", \"parity_shift4\": " << (parity_shift4 ? "true" : "false")
       << ",\n     \"dispatched_kernel\": \"" << gemm::kernel_name(dispatched)
       << "\", \"speedup_kernel\": " << speedup_kernel
       << ",\n     \"kernels\": [";
    for (size_t i = 0; i < krows.size(); ++i) {
      js << (i ? ", " : "") << "{\"name\": \"" << gemm::kernel_name(krows[i].k)
         << "\", \"ms\": " << krows[i].ms
         << ", \"mflops\": " << mflop / krows[i].ms * 1e3
         << ", \"parity\": " << (krows[i].parity ? "true" : "false") << "}";
    }
    js << "],\n     \"pass\": " << (shape_ok ? "true" : "false") << "}";
    first_shape = false;
  }
  js << "\n  ],";

  // The paper's first layer at the layer-0 gate geometry, as a network
  // runs it: symmetric weights packed once, then the fused driver with the
  // kI16Shift4 accumulator, against the §III-D lane model it replaced.
  // Both run on one thread; every tier must be bit-identical to the lane
  // model, and the kAuto tier at least kMinFirstLayerSpeedup faster.
  {
    const double kMinFirstLayerSpeedup = 3.0;
    const Fixture& f = fixture();
    const gemm::PackedLhs packed = gemm::pack_symmetric(f.sym, 16);
    const quant::AffineParams w_params{f.sym.scale,
                                       gemm::kSymmetricZeroPoint};
    Tensor want(f.out.shape()), got(f.out.shape());
    gemm::first_layer_lowp_acc16(f.image.data(), f.g, f.in_params, f.sym,
                                 f.bias.data(), want.data());
    const auto bytes = static_cast<size_t>(want.numel()) * sizeof(float);
    gemm::GemmOptions opts;
    opts.allow_threads = false;
    opts.acc = gemm::Accumulator::kI16Shift4;
    const auto run_engine = [&] {
      gemm::fused_conv_lowp_f32out(f.image.data(), f.g, f.in_params, packed,
                                   w_params, f.bias.data(), got.data(), opts);
    };
    bool parity = true;
    for (const gemm::Kernel k : gemm::dispatchable_kernels()) {
      opts.kernel = k;
      got.fill(-1.0f);
      run_engine();
      parity = parity && std::memcmp(want.data(), got.data(), bytes) == 0;
    }
    opts.kernel = gemm::Kernel::kAuto;
    const double lane_ms = best_of_ms(kTrials, [&] {
      gemm::first_layer_lowp_acc16(f.image.data(), f.g, f.in_params, f.sym,
                                   f.bias.data(), got.data());
    });
    const double engine_ms = best_of_ms(kTrials, run_engine);
    const double speedup = lane_ms / engine_ms;
    const bool ok = parity && speedup >= kMinFirstLayerSpeedup;
    pass = pass && ok;
    const double mflop = 2.0 * 16 * f.g.num_patches() * f.g.patch_size() / 1e6;
    std::printf(
        "first16_acc16 %lldx%lld parity(all tiers)=%s\n"
        "          lane model %8.3f ms (%7.0f MFLOP/s)\n"
        "          engine-1t  %8.3f ms (%7.0f MFLOP/s)  %.2fx  [floor %.1fx]"
        "  -> %s\n",
        static_cast<long long>(f.g.in_height),
        static_cast<long long>(f.g.in_width), parity ? "ok" : "FAIL",
        lane_ms, mflop / lane_ms * 1e3, engine_ms, mflop / engine_ms * 1e3,
        speedup, kMinFirstLayerSpeedup, ok ? "PASS" : "FAIL");
    js << "\n  \"first_layer\": {\"name\": \"first16_acc16\", \"H\": "
       << f.g.in_height << ", \"W\": " << f.g.in_width
       << ", \"lane_model_ms\": " << lane_ms
       << ", \"engine_single_thread_ms\": " << engine_ms
       << ", \"speedup_single_thread\": " << speedup
       << ", \"min_speedup\": " << kMinFirstLayerSpeedup
       << ", \"parity\": " << (parity ? "true" : "false")
       << ", \"pass\": " << (ok ? "true" : "false") << "},";
  }
  js << "\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";

  if (json_path) {
    std::ofstream out(json_path);
    out << js.str();
    if (!out.good()) {
      std::fprintf(stderr, "gemm gate: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  std::printf("gemm gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gate") == 0)
    return run_gate(argc > 2 ? argv[2] : "BENCH_gemm.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
