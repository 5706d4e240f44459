#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/errors.hpp"
#include "core/rng.hpp"
#include "data/image.hpp"
#include "detect/decode.hpp"
#include "detect/nms.hpp"
#include "nn/builder.hpp"
#include "nn/conv_layer.hpp"
#include "nn/offload_layer.hpp"
#include "nn/region_layer.hpp"
#include "nn/zoo.hpp"
#include "offload/fabric_backend.hpp"
#include "offload/import.hpp"
#include "offload/registration.hpp"
#include "perf/stage_times.hpp"
#include "pipeline/demo.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/demo.hpp"
#include "serve/server.hpp"
#include "video/camera.hpp"
#include "video/sink.hpp"

namespace perfbench {
namespace {

using namespace tincy;
using telemetry::TraceCollector;
using telemetry::TraceEvent;
using telemetry::TracePhase;
using FrameKey = std::pair<int64_t, int64_t>;  ///< (trace session, sequence)

constexpr int kSetupReps = 11;
constexpr int kWorkers = 4;       // the paper's 4 x A53; nproc of the host
constexpr int kStreams = 4;       // serve4
constexpr int kOutstanding = 2;   // serve4: frames in flight per stream
constexpr int kServeSize = 128;   // serve4 network input
constexpr double kWarmupSeconds = 1.0;  // serve4
/// serve4: submission time of one segment of the timed window, which then
/// drains before the next host-speed probe.
constexpr double kServeSegmentSeconds = 3.0;
/// A segment's host speed comes from the two probes around it and this
/// many more each way.
constexpr size_t kProbeSpan = 2;
/// Frames a segment needs for its own p90 to count toward frame_ms_p90.
constexpr size_t kMinSegmentFramesForP90 = 10;
/// demo64 frames per Pipeline::run. A traced chunk is collected before the
/// next starts, and this many frames stay well inside one thread's trace
/// ring (TraceCollector::kDefaultCapacity events).
constexpr int64_t kDemoChunk = 200;
/// serve4: traced submissions between two trace collections (drain,
/// snapshot, reset), for the same reason.
constexpr int64_t kTraceSliceFrames = 250;
/// Traced network outputs kept for timing detect::decode_region and nms.
constexpr size_t kBoxingFrames = 256;
/// paper416: how far the per-frame sum of the layer and stage self times
/// may sit from the untraced frame_ms_p50 before the run fails, and the
/// traced and untraced frames each side needs for the check: single frames
/// differ by more than the tolerance.
constexpr double kSelfSumTolerance = 0.10;
constexpr size_t kSelfSumMinFrames = 5;

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Restarts the kernel's peak-RSS count (VmHWM) from the current RSS.
void restart_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  if (!clear.flush())
    throw Error("cannot reset the peak RSS through /proc/self/clear_refs");
}

/// Hands the memory set-up freed back to the system and restarts the
/// peak-RSS count, so peak_rss_mb() measures what the program holds while
/// it serves frames, not the set-up's scaffolding.
void reset_peak_rss() {
  malloc_trim(0);
  restart_peak_rss();
}

/// VmHWM: the peak resident set size since the last restart_peak_rss().
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw Error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// A fixed piece of work, part of the benchmark and not of the program,
/// whose run time follows the speed of a shared host: XNOR-popcount row
/// products, as the fabric simulator computes them, over 128 KB of binary
/// weights. A shared host's vCPUs speed up and slow down by tens of
/// percent over seconds, and every time the benchmark reads moves with
/// them. The benchmark runs the probe before and after each segment of its
/// timed window and each set-up, on as many threads as the workload keeps
/// busy, while no frame is in flight. It scales their times by
/// kReferenceMs over the probe time around them (HostProbe::scale):
/// the scaled times read as on a host where one probe takes kReferenceMs.
/// A change to the program leaves the probe alone, so it moves the scaled
/// times as much as the measured ones.
class HostProbe {
 public:
  /// One probe on the 4-vCPU Xeon VM that the README's figures come from.
  static constexpr double kReferenceMs = 3.0;

  struct Reading {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;  ///< CPU time of the probing threads
  };

  /// `threads` probes run at once, one per thread.
  explicit HostProbe(int threads) : threads_(threads) {}

  /// Median over kReps probes of each thread, averaged over the threads.
  Reading measure() {
    std::vector<Reading> per_thread(static_cast<size_t>(threads_));
    const auto probe = [this](Reading& out) {
      std::vector<uint64_t> acts = acts_;
      std::vector<double> wall, cpu;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const double c0 = thread_cpu_ms();
        run_once(acts);
        cpu.push_back(thread_cpu_ms() - c0);
        wall.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
      }
      out = {median(wall), median(cpu)};
    };
    std::vector<std::thread> others;
    for (size_t t = 1; t < per_thread.size(); ++t)
      others.emplace_back(probe, std::ref(per_thread[t]));
    probe(per_thread[0]);
    for (auto& t : others) t.join();
    Reading mean;
    for (const Reading& r : per_thread) {
      mean.wall_ms += r.wall_ms / threads_;
      mean.cpu_ms += r.cpu_ms / threads_;
    }
    return mean;
  }

  /// What wall and CPU times measured around `readings` are multiplied
  /// by: kReferenceMs over the median probe time. Above 1 the host ran
  /// faster than the reference.
  struct Scale {
    double wall = 1.0;
    double cpu = 1.0;
  };
  static Scale scale(const std::vector<Reading>& readings) {
    std::vector<double> wall, cpu;
    for (const Reading& r : readings) {
      wall.push_back(r.wall_ms);
      cpu.push_back(r.cpu_ms);
    }
    return {kReferenceMs / median(wall), kReferenceMs / median(cpu)};
  }

 private:
  static constexpr int kReps = 7;
  static constexpr int kPasses = 40;
  static constexpr size_t kRows = 128, kRowWords = 128;

  void run_once(std::vector<uint64_t>& acts) {
    int64_t sum = 0;
    for (int pass = 0; pass < kPasses; ++pass)
      for (size_t r = 0; r < kRows; ++r) {
        int64_t n = 0;
        const uint64_t* row = &weights_[r * kRowWords];
        for (size_t i = 0; i < kRowWords; ++i)
          n += std::popcount(~(row[i] ^ acts[i]));
        acts[r % kRowWords] ^= static_cast<uint64_t>(n) << (r % 57);
        sum += n;
      }
    sink_.fetch_add(sum, std::memory_order_relaxed);
  }

  static std::vector<uint64_t> random_words(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint64_t> v(n);
    for (auto& w : v) w = rng();
    return v;
  }

  const int threads_;
  const std::vector<uint64_t> weights_ = random_words(kRows * kRowWords, 1);
  const std::vector<uint64_t> acts_ = random_words(kRowWords, 2);
  std::atomic<int64_t> sink_{0};
};

// ---------------------------------------------------------------------------
// Networks

/// Splits cfg text into sections, each starting at its "[name]" line.
std::vector<std::string> cfg_sections(const std::string& cfg) {
  std::vector<std::string> sections;
  size_t pos = cfg.rfind('[', 0) == 0 ? 0 : cfg.find("\n[");
  if (pos != 0 && pos != std::string::npos) ++pos;
  while (pos != std::string::npos) {
    const size_t next = cfg.find("\n[", pos);
    if (next == std::string::npos) {
      sections.push_back(cfg.substr(pos));
      break;
    }
    sections.push_back(cfg.substr(pos, next + 1 - pos));
    pos = next + 1;
  }
  return sections;
}

void copy_conv(nn::Network& from, int64_t i, nn::Network& to, int64_t j) {
  const auto& src = dynamic_cast<const nn::ConvLayer&>(from.layer(i));
  auto& dst = dynamic_cast<nn::ConvLayer&>(to.layer(j));
  dst.weights() = src.weights();
  dst.biases() = src.biases();
  if (src.config().batch_normalize) {
    dst.bn_scales() = src.bn_scales();
    dst.bn_mean() = src.bn_mean();
    dst.bn_var() = src.bn_var();
  }
  dst.invalidate_cached_quantization();
}

offload::FabricBackend& fabric_of(nn::Network& net, int64_t layer) {
  auto& off = dynamic_cast<nn::OffloadLayer&>(net.layer(layer));
  return dynamic_cast<offload::FabricBackend&>(off.backend());
}

std::string golden_cfg(int size) {
  using namespace nn::zoo;
  return tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kW1A3, size,
                       CpuProfile::kOptimized);
}

/// The CPU golden W1A3 Tincy YOLO with seeded random weights: the weight
/// source of the heterogeneous nets, and the reference of the output check
/// (rebuilt there from the same seed).
std::unique_ptr<nn::Network> build_golden(int size, uint64_t seed) {
  auto g = nn::zoo::build(golden_cfg(size));
  Rng rng(seed);
  nn::zoo::randomize(*g, rng);
  return g;
}

/// Simulated ZU3EG statistics of the configuration: the Table III frame
/// model and, for a heterogeneous net, the fabric cycle split.
std::map<std::string, double> simulate(const nn::Network& cost_net,
                                       nn::Network* hetero) {
  std::map<std::string, double> sim;
  sim["zu3eg_frame_ms"] =
      perf::model_stage_times(cost_net, perf::ZynqPlatform{},
                              perf::FirstLayerImpl::kSpecAcc16,
                              hetero ? perf::HiddenImpl::kFabric
                                     : perf::HiddenImpl::kGeneric)
          .total_ms();
  if (hetero) {
    const auto& backend = fabric_of(*hetero, 1);
    const auto& acc = backend.accelerator();
    fabric::LayerPerf sum;
    for (int64_t i = 0; i < acc.num_layers(); ++i) {
      const auto p = acc.layer_perf(i);
      sum.compute_cycles += p.compute_cycles;
      sum.weight_dma_cycles += p.weight_dma_cycles;
      sum.fmap_dma_cycles += p.fmap_dma_cycles;
      sum.overhead_cycles += p.overhead_cycles;
      sum.pool_cycles += p.pool_cycles;
    }
    sim["fabric.compute_cycles"] = static_cast<double>(sum.compute_cycles);
    sim["fabric.weight_dma_cycles"] =
        static_cast<double>(sum.weight_dma_cycles);
    sim["fabric.fmap_dma_cycles"] = static_cast<double>(sum.fmap_dma_cycles);
    sim["fabric.overhead_cycles"] = static_cast<double>(sum.overhead_cycles);
    sim["fabric.pool_cycles"] = static_cast<double>(sum.pool_cycles);
    sim["fabric.total_cycles"] = static_cast<double>(sum.total_cycles());
    // QnnAccelerator::total_ms() of the loaded accelerator.
    sim["fabric.modeled_ms"] = backend.modeled_ms();
  }
  return sim;
}

/// `instances` heterogeneous copies of the golden net: L0 W8A8
/// first16_acc16, the seven hidden W1A3 convs and their pools behind one
/// [offload] library=fabric.so layer (layer 1), the W8A8 lowp output conv,
/// region. The golden net and the subnet that exports the binparams are
/// freed before this returns.
struct Hetero {
  std::vector<std::unique_ptr<nn::Network>> nets;
  std::map<std::string, double> simulated;
};

Hetero build_hetero(int size, uint64_t seed, int instances,
                    const std::string& dir) {
  const auto golden = build_golden(size, seed);
  nn::Network& g = *golden;

  // Golden layers: 0 input conv, 1 .. L-3 hidden stack, L-2 output conv,
  // L-1 region. Section k+1 of the cfg describes layer k.
  const auto sections = cfg_sections(golden_cfg(size));
  const int64_t L = g.num_layers();
  TINCY_CHECK_MSG(static_cast<int64_t>(sections.size()) == L + 1,
                  "unexpected Tincy cfg layout");
  const Shape in = g.layer_input_shape(1);
  const Shape out = g.layer(L - 3).output_shape();
  std::string subnet_cfg = "[net]\nwidth=" + std::to_string(in.width()) +
                           "\nheight=" + std::to_string(in.height()) +
                           "\nchannels=" + std::to_string(in.channels()) +
                           "\n\n";
  for (int64_t i = 1; i <= L - 3; ++i)
    subnet_cfg += sections[static_cast<size_t>(i + 1)];
  {
    auto subnet = nn::build_network_from_string(subnet_cfg);
    for (int64_t i = 0; i < subnet->num_layers(); ++i)
      if (dynamic_cast<nn::ConvLayer*>(&subnet->layer(i)))
        copy_conv(g, i + 1, *subnet, i);
    std::filesystem::remove_all(dir);
    offload::export_binparams(*subnet, dir);
  }
  const std::string name = "perfbench-tincy-" + std::to_string(size);
  offload::register_inline_network(name, subnet_cfg);
  const std::string hetero_cfg =
      sections[0] + sections[1] +
      "[offload]\nlibrary=fabric.so\nnetwork=inline:" + name +
      "\nweights=" + dir + "\nchannel=" + std::to_string(out.channels()) +
      "\nheight=" + std::to_string(out.height()) +
      "\nwidth=" + std::to_string(out.width()) + "\n\n" +
      sections[static_cast<size_t>(L - 1)] + sections[static_cast<size_t>(L)];

  Hetero h;
  for (int k = 0; k < instances; ++k) {
    auto net = nn::build_network_from_string(hetero_cfg);
    copy_conv(g, 0, *net, 0);
    copy_conv(g, L - 2, *net, 2);
    fabric_of(*net, 1).load_weights();
    // First-call packing of the two edge GEMM layers.
    net->run_layer(0, Tensor(net->input_shape()));
    net->run_layer(2, Tensor(net->layer_input_shape(2)));
    h.nets.push_back(std::move(net));
  }
  std::filesystem::remove_all(dir);
  h.simulated = simulate(g, h.nets[0].get());
  return h;
}

/// What `tincy demo` runs: float Tincy @64 with the optimized CPU profile.
std::unique_ptr<nn::Network> build_demo_net(uint64_t seed) {
  using namespace nn::zoo;
  auto net = build(tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kFloat, 64,
                                 CpuProfile::kOptimized));
  Rng rng(seed);
  randomize(*net, rng);
  net->forward(Tensor(net->input_shape()));  // first-call packing
  return net;
}

/// Runs `setup` kSetupReps times, timing each and probing the host speed
/// between two; the simulated statistics it returns must come out
/// identical every time. Then restarts the peak-RSS count.
template <typename Setup>
void repeat_setup(Outcome& out, HostProbe& probe, Setup&& setup) {
  HostProbe::Reading before = probe.measure();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto sim = setup();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const HostProbe::Reading after = probe.measure();
    out.measured.setup_s.push_back(s);
    out.at_ref.setup_s.push_back(s * HostProbe::scale({before, after}).wall);
    before = after;
    if (rep == 0) {
      out.simulated = std::move(sim);
    } else if (sim != out.simulated) {
      out.errors.push_back("simulated statistics differ between set-ups");
    }
  }
  reset_peak_rss();
}

// ---------------------------------------------------------------------------
// Detection and verification helpers

const nn::RegionConfig& region_of(const nn::Network& net) {
  return dynamic_cast<const nn::RegionLayer&>(
             net.layer(net.num_layers() - 1))
      .config();
}

/// Object boxing of a reference output, as the demo's object_boxing stage
/// does it.
std::vector<detect::Detection> box_objects(const nn::Network& net,
                                           const Tensor& features,
                                           const Shape& image) {
  const pipeline::DemoConfig dc;
  auto dets = detect::nms(
      detect::decode_region(features, region_of(net), dc.detect_threshold),
      dc.nms_iou);
  const int64_t input_size = net.input_shape().height();
  for (auto& d : dets)
    data::unletterbox_box(d.box.x, d.box.y, d.box.w, d.box.h, image.width(),
                          image.height(), input_size);
  return dets;
}

int64_t mismatches(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return std::max(a.numel(), b.numel());
  int64_t n = 0;
  for (int64_t i = 0; i < a.numel(); ++i) n += a[i] != b[i];
  return n;
}

bool same_detections(const std::vector<detect::Detection>& a,
                     const std::vector<detect::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto &x = a[i], &y = b[i];
    if (x.class_id != y.class_id || x.objectness != y.objectness ||
        x.class_prob != y.class_prob || x.box.x != y.box.x ||
        x.box.y != y.box.y || x.box.w != y.box.w || x.box.h != y.box.h)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The harness: frame ledger, sampled outputs and trace collection shared by
// all workloads.

/// One delivered frame kept per stream for the untimed output checks.
struct Sample {
  int64_t sequence = -1;
  Tensor boxed;  ///< network input
  Shape image;   ///< camera frame geometry
  Tensor features;  ///< network output
  std::vector<detect::Detection> detections;
};

/// What the traced sections of a run collected.
struct TraceLog {
  std::vector<TraceEvent> events;  ///< TraceCollector::global() snapshots
  std::set<FrameKey> frames;       ///< frames delivered while traced
  std::vector<double> latency_ms;  ///< their capture -> delivery times
  std::vector<Tensor> outputs;     ///< network outputs of the first ones
  double wall_ms = 0.0;            ///< time spent traced
};

class Harness {
 public:
  /// `sessions[s]` is the session id the program's trace spans carry for
  /// stream s: the StreamServer session, or -1 on a Pipeline.
  explicit Harness(std::vector<int64_t> sessions, HostProbe& probe)
      : probe_(probe),
        sessions_(std::move(sessions)),
        sample_seq_(sessions_.size(), -1),
        samples_(sessions_.size()),
        sinks_(sessions_.size()),
        outstanding_(sessions_.size(), 0),
        epoch_(std::chrono::steady_clock::now()) {}

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Switches tracing (TraceCollector::global()) on or off. Switch only
  /// while no frame is in flight.
  void set_traced(bool on) {
    TraceCollector::global().set_enabled(on);
    std::lock_guard lock(mutex_);
    if (on && !traced_) traced_since_ = now_ms();
    if (!on && traced_) trace_.wall_ms += now_ms() - traced_since_;
    traced_ = on;
  }
  bool traced() const {
    std::lock_guard lock(mutex_);
    return traced_;
  }

  /// Moves the trace events recorded so far into the log. Call only while
  /// no frame is in flight.
  void collect_trace() {
    auto& collector = TraceCollector::global();
    const auto events = collector.snapshot();
    collector.reset();
    std::map<int32_t, int64_t> per_thread;
    for (const auto& e : events)
      if (++per_thread[e.tid] >= collector.capacity_per_thread())
        throw Error("a trace ring filled up between two collections; "
                    "collect more often");
    std::lock_guard lock(mutex_);
    trace_.events.insert(trace_.events.end(), events.begin(), events.end());
  }
  const TraceLog& trace() const { return trace_; }

  /// Sets which frame of each stream the next section keeps for checking:
  /// the next one each camera captures, or none.
  void sample_next(const std::vector<int64_t>& next_seq) {
    std::lock_guard lock(mutex_);
    sample_seq_ = next_seq;
  }
  void sample_none() {
    sample_next(std::vector<int64_t>(sample_seq_.size(), -1));
  }

  /// Captures the next frame of `stream`, noting its capture time; a
  /// traced capture is a "video.read" span of the frame.
  video::Frame capture(int64_t stream, video::SyntheticCamera& camera) {
    const double t = now_ms();
    const int64_t seq = camera.frames_captured();
    {
      std::lock_guard lock(mutex_);
      capture_ms_[{stream, seq}] = t;
      ++captured_;
      ++outstanding_[static_cast<size_t>(stream)];
    }
    telemetry::TraceSpan span(&TraceCollector::global(), "video.read",
                              sessions_[static_cast<size_t>(stream)], seq);
    return camera.read_frame();
  }

  /// A submission the server refused; the frame is never delivered.
  void refused(int64_t stream, int64_t seq) {
    std::lock_guard lock(mutex_);
    capture_ms_.erase({stream, seq});
    --outstanding_[static_cast<size_t>(stream)];
    ++rejected_;
    cv_.notify_all();
  }

  /// Records a delivered frame: its latency in the timed window or in the
  /// trace log, its order, and the sampled frame's outputs.
  void deliver(int64_t stream, const video::Frame& f) {
    const double t = now_ms();
    const auto s = static_cast<size_t>(stream);
    sinks_[s].push(f);
    std::lock_guard lock(mutex_);
    const auto it = capture_ms_.find({stream, f.sequence});
    if (it != capture_ms_.end()) {
      if (traced_) {
        trace_.latency_ms.push_back(t - it->second);
        trace_.frames.insert({sessions_[s], f.sequence});
        if (trace_.outputs.size() < kBoxingFrames)
          trace_.outputs.push_back(f.features);
      } else if (counting_) {
        segment_latency_.push_back(t - it->second);
      }
      capture_ms_.erase(it);
    }
    ++delivered_;
    --outstanding_[s];
    if (f.sequence == sample_seq_[s]) {
      Sample& smp = samples_[s];
      smp.sequence = f.sequence;
      smp.boxed = f.boxed;
      smp.image = f.image.shape();
      smp.features = f.features;
      smp.detections = f.detections;
    }
    cv_.notify_all();
  }

  /// Blocks until some stream has fewer than `limit` frames in flight
  /// (round robin) or `deadline_ms` passes; returns the stream or -1.
  int64_t wait_for_free_stream(int limit, double deadline_ms) {
    std::unique_lock lock(mutex_);
    int64_t found = -1;
    const auto pred = [&] {
      const size_t n = outstanding_.size();
      for (size_t k = 0; k < n; ++k) {
        const size_t s = (rr_ + k) % n;
        if (outstanding_[s] < limit) {
          found = static_cast<int64_t>(s);
          rr_ = s + 1;
          return true;
        }
      }
      return false;
    };
    const double wait_ms = deadline_ms - now_ms();
    if (wait_ms > 0)
      cv_.wait_for(lock, std::chrono::duration<double, std::milli>(wait_ms),
                   pred);
    else
      pred();
    return found;
  }

  /// Untraced timed window, made of segments with a host-speed probe
  /// between two.
  void begin_window() {
    {
      std::lock_guard lock(mutex_);
      counting_ = true;
    }
    probes_ = {probe_.measure()};
  }

  /// Runs `chunk` as one segment: a frame on paper416, a chunk of frames
  /// that ends with nothing in flight on the other workloads. Inside the
  /// untraced window the host-speed probe runs after it, and a segment
  /// that delivered frames is kept with its wall and CPU time, its peak
  /// RSS and the probe readings on either side.
  template <typename Chunk>
  void segment(Chunk&& chunk) {
    bool counting = false;
    {
      std::lock_guard lock(mutex_);
      counting = counting_;
      segment_latency_.clear();
    }
    if (counting) restart_peak_rss();
    const double t0 = now_ms(), c0 = cpu_ms();
    chunk();
    Segment seg{.latency_ms = {},
                .wall_ms = now_ms() - t0,
                .cpu_ms = cpu_ms() - c0,
                .peak_rss_mb = counting ? peak_rss_mb() : 0.0,
                .probe = probes_.size() - 1};
    if (!counting) return;
    probes_.push_back(probe_.measure());
    std::lock_guard lock(mutex_);
    if (segment_latency_.empty()) return;
    seg.latency_ms = std::move(segment_latency_);
    segment_latency_.clear();
    segments_.push_back(std::move(seg));
  }

  /// The window's times, as measured and at the reference host speed.
  /// Segment medians make them robust to a segment that the host
  /// disturbed: frame_ms_p90 is the median of the segments' p90 (over all
  /// frames on paper416, whose segments hold one frame), and fps,
  /// cpu_ms_per_frame and the peak RSS are medians over segments.
  void end_window(Outcome& out) {
    {
      std::lock_guard lock(mutex_);
      counting_ = false;
      TINCY_CHECK_MSG(!segments_.empty(),
                      "no frame delivered in the timed window");
      const auto fill = [&](Outcome::Times& t, bool at_ref) {
        std::vector<double> p90, fps, cpu;
        for (const Segment& seg : segments_) {
          const HostProbe::Scale scale =
              at_ref ? segment_scale(seg) : HostProbe::Scale{};
          const double ws = scale.wall, cs = scale.cpu;
          const auto n = static_cast<double>(seg.latency_ms.size());
          std::vector<double> latency;
          for (const double ms : seg.latency_ms) latency.push_back(ms * ws);
          t.frame_ms.insert(t.frame_ms.end(), latency.begin(), latency.end());
          if (latency.size() >= kMinSegmentFramesForP90)
            p90.push_back(percentile(latency, 0.90));
          fps.push_back(1000.0 * n / (seg.wall_ms * ws));
          cpu.push_back(seg.cpu_ms * cs / n);
        }
        t.frame_ms_p90 =
            p90.empty() ? percentile(t.frame_ms, 0.90) : median(p90);
        t.fps = median(fps);
        t.cpu_ms_per_frame = median(cpu);
      };
      fill(out.measured, false);
      fill(out.at_ref, true);
      std::vector<double> speed, rss;
      for (const Segment& seg : segments_) {
        speed.push_back(segment_scale(seg).wall);
        rss.push_back(seg.peak_rss_mb);
        out.segments.push_back({static_cast<double>(seg.latency_ms.size()),
                                seg.wall_ms, seg.cpu_ms,
                                median(seg.latency_ms),
                                probes_[seg.probe].wall_ms,
                                probes_[seg.probe + 1].wall_ms,
                                probes_[seg.probe].cpu_ms,
                                probes_[seg.probe + 1].cpu_ms});
      }
      out.host_speed = median(speed);
      out.peak_rss_mb = median(rss);
    }
  }

  /// Frame accounting: every capture that was not delivered, and every
  /// delivery out of order (video::OrderCheckingSink per stream).
  void account(Outcome& out) const {
    std::lock_guard lock(mutex_);
    out.attempted += captured_;
    const int64_t lost = captured_ - delivered_;
    int64_t out_of_order = 0;
    for (const auto& sink : sinks_) {
      if (sink.in_order()) continue;
      const auto seqs = sink.sequences();
      for (size_t i = 1; i < seqs.size(); ++i)
        out_of_order += seqs[i] <= seqs[i - 1];
    }
    out.failed += lost + out_of_order;
    if (lost > 0)
      out.errors.push_back(std::to_string(lost) + " frames not delivered");
    if (out_of_order > 0)
      out.errors.push_back(std::to_string(out_of_order) +
                           " frames delivered out of order");
  }

  int64_t rejected() const {
    std::lock_guard lock(mutex_);
    return rejected_;
  }
  const Sample& sample(int64_t stream) const {
    return samples_[static_cast<size_t>(stream)];
  }

 private:
  HostProbe& probe_;
  const std::vector<int64_t> sessions_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<int64_t> sample_seq_;
  std::vector<Sample> samples_;
  std::vector<video::OrderCheckingSink> sinks_;
  std::map<std::pair<int64_t, int64_t>, double> capture_ms_;
  std::vector<int> outstanding_;
  size_t rr_ = 0;
  int64_t captured_ = 0, delivered_ = 0, rejected_ = 0;
  bool counting_ = false, traced_ = false;
  double traced_since_ = 0.0;
  struct Segment {
    std::vector<double> latency_ms;
    double wall_ms = 0.0, cpu_ms = 0.0;
    double peak_rss_mb = 0.0;
    size_t probe = 0;  ///< probes_[probe] ran before it, probe + 1 after
  };

  /// Host-speed scale of a segment: from the probes around it, the two on
  /// either side and kProbeSpan more each way. One probe is noisier than
  /// the drift it measures, and the drift lasts several segments.
  HostProbe::Scale segment_scale(const Segment& seg) const {
    const size_t lo = seg.probe > kProbeSpan ? seg.probe - kProbeSpan : 0;
    const size_t hi = std::min(probes_.size(), seg.probe + 2 + kProbeSpan);
    return HostProbe::scale({probes_.begin() + static_cast<ptrdiff_t>(lo),
                             probes_.begin() + static_cast<ptrdiff_t>(hi)});
  }

  std::vector<HostProbe::Reading> probes_;  ///< in the order they ran
  std::vector<double> segment_latency_;
  std::vector<Segment> segments_;
  TraceLog trace_;
  const std::chrono::steady_clock::time_point epoch_;
};

// ---------------------------------------------------------------------------
// Output checks (untimed)

/// Sampled frames against the CPU golden net with identical weights (the
/// set-up's golden net, rebuilt from the same seed), code for code: the
/// hidden-stack output of the heterogeneous net on the sampled input, the
/// delivered network output and the delivered detections.
void verify_golden(const Harness& h, int size, uint64_t seed,
                   const std::vector<std::unique_ptr<nn::Network>>& nets,
                   Outcome& out) {
  const auto golden = build_golden(size, seed);
  nn::Network& g = *golden;
  const int64_t L = g.num_layers();
  for (size_t s = 0; s < nets.size(); ++s) {
    const Sample& smp = h.sample(static_cast<int64_t>(s));
    if (smp.sequence < 0) {
      ++out.failed;
      out.errors.push_back("stream " + std::to_string(s) +
                           ": sampled frame never delivered");
      continue;
    }
    const Tensor& gout = g.forward(smp.boxed);
    nn::Network& net = *nets[s];
    const Tensor& offload_out = net.run_layer(1, net.run_layer(0, smp.boxed));
    const int64_t hidden = mismatches(g.layer_output(L - 3), offload_out);
    const int64_t final_out = mismatches(gout, smp.features);
    const bool dets_equal =
        same_detections(box_objects(g, gout, smp.image), smp.detections);
    std::printf("# golden check stream %zu frame %lld: hidden codes %lld/%lld "
                "mismatches, output %lld/%lld, detections %s\n",
                s, static_cast<long long>(smp.sequence),
                static_cast<long long>(hidden),
                static_cast<long long>(offload_out.numel()),
                static_cast<long long>(final_out),
                static_cast<long long>(gout.numel()),
                dets_equal ? "equal" : "DIFFER");
    if (hidden != 0 || final_out != 0 || !dets_equal) {
      ++out.failed;
      out.errors.push_back("stream " + std::to_string(s) +
                           ": output differs from the CPU golden net");
    }
  }
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics and the self-time table

/// The per-layer metric each span name of the program's trace counts
/// toward. Spans without one (gemm.pack/compute) count toward their
/// nearest ancestor's; frame, stage, sink and deliver spans toward none.
std::map<std::string, std::string> span_metrics(nn::Network& net) {
  std::map<std::string, std::string> m{
      {"video.read", "video.read_ms"},
      {"stage:letterbox", "data.letterbox_ms"},
      {"stage:frame_drawing", "video.draw_ms"},
  };
  int64_t last_conv = -1;
  for (int64_t i = 0; i < net.num_layers(); ++i)
    if (net.layer(i).type_name() == "convolutional") last_conv = i;
  for (int64_t i = 0; i < net.num_layers(); ++i) {
    const std::string type = net.layer(i).type_name();
    std::string metric;
    if (type == "offload") {
      metric = "offload.convert_ms";
      const auto& acc = fabric_of(net, i).accelerator();
      for (int64_t k = 0; k < acc.num_layers(); ++k)
        m["fabric.layer" + std::to_string(k)] =
            "fabric.layer" + std::to_string(k) + ".host_ms";
    } else if (type == "convolutional") {
      metric = i == 0           ? "gemm.first_layer_ms"
               : i == last_conv ? "gemm.output_layer_ms"
                                : "gemm.float_hidden_ms";
    } else if (type == "maxpool") {
      metric = "nn.maxpool_ms";
    } else if (type == "region") {
      metric = "nn.region_ms";
    }
    // Network::add's trace label, "net.layer.<i>.<type>".
    if (!metric.empty())
      m["net.layer." + std::to_string(i) + "." + type] = metric;
  }
  return m;
}

/// Self time of every complete span in `events`: its duration minus its
/// direct children's, nesting per thread track as the trace records it.
/// Returns (self time, parent index or -1) per event; -1 self for events
/// that are not complete spans.
std::vector<std::pair<double, int64_t>> self_times(
    const std::vector<TraceEvent>& events) {
  std::vector<size_t> order;
  for (size_t i = 0; i < events.size(); ++i)
    if (events[i].phase == TracePhase::kComplete) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto &x = events[a], &y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_ms != y.ts_ms) return x.ts_ms < y.ts_ms;
    return x.dur_ms > y.dur_ms;
  });
  std::vector<std::pair<double, int64_t>> out(events.size(), {-1.0, -1});
  std::vector<size_t> stack;
  int32_t tid = -1;
  for (const size_t i : order) {
    const TraceEvent& e = events[i];
    if (e.tid != tid) stack.clear();
    tid = e.tid;
    while (!stack.empty() && events[stack.back()].ts_ms +
                                     events[stack.back()].dur_ms <=
                                 e.ts_ms)
      stack.pop_back();
    out[i] = {e.dur_ms, stack.empty() ? -1 : static_cast<int64_t>(stack.back())};
    if (!stack.empty()) out[stack.back()].first -= e.dur_ms;
    stack.push_back(i);
  }
  return out;
}

struct TraceInputs {
  std::string workload;
  nn::Network* net = nullptr;  ///< the (first) network the frames ran on
  std::set<std::string> engine_stages{};  ///< "stage:<name>" of engine stages
  int64_t rejected = 0;
  double untraced_p50 = 0.0;
  size_t untraced_frames = 0;
};

void analyze_trace(const TraceLog& trace, const TraceInputs& in,
                   Outcome& out) {
  for (const auto& spec : per_layer_specs()) out.per_layer[spec.name] = 0.0;
  out.trace_events = trace.events;
  const std::vector<TraceEvent>& events = trace.events;
  TINCY_CHECK_MSG(!trace.frames.empty(),
                  "no frame delivered in the traced run");
  const auto metric_of = span_metrics(*in.net);
  const auto self = self_times(events);

  // Per traced frame: self time per span name and per metric; its stage
  // spans in order; its admission-queue dwell.
  std::map<FrameKey, std::map<std::string, double>> frame_span, frame_metric;
  std::map<FrameKey, std::vector<size_t>> stages_of;
  std::map<FrameKey, double> queue_begin;
  std::map<std::string, int64_t> calls;
  double busy = 0.0, engine_busy = 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const FrameKey key{e.session, e.frame};
    if (!trace.frames.count(key)) continue;
    const std::string name(e.name_view());
    if (e.phase == TracePhase::kAsyncBegin && name == "queue") {
      queue_begin[key] = e.ts_ms;
    } else if (e.phase == TracePhase::kAsyncEnd && name == "queue") {
      const auto it = queue_begin.find(key);
      if (it != queue_begin.end())
        frame_metric[key]["wait.queue"] = e.ts_ms - it->second;
    }
    if (e.phase != TracePhase::kComplete) continue;
    frame_span[key][name] += self[i].first;
    ++calls[name];
    for (int64_t j = static_cast<int64_t>(i); j >= 0;
         j = self[static_cast<size_t>(j)].second) {
      const auto m = metric_of.find(
          std::string(events[static_cast<size_t>(j)].name_view()));
      if (m == metric_of.end()) continue;
      frame_metric[key][m->second] += self[i].first;
      if (m->second.rfind("fabric.layer", 0) == 0)
        frame_metric[key]["fabric.host_ms"] += self[i].first;
      break;
    }
    if (name.rfind("stage:", 0) == 0) {
      stages_of[key].push_back(i);
      busy += e.dur_ms;
      if (in.engine_stages.count(name)) engine_busy += e.dur_ms;
    }
  }

  // Waits between the stages of a frame.
  for (auto& [key, idx] : stages_of) {
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return events[a].ts_ms < events[b].ts_ms;
    });
    auto& fm = frame_metric[key];
    for (size_t k = 1; k < idx.size(); ++k) {
      const TraceEvent& prev = events[idx[k - 1]];
      const TraceEvent& s = events[idx[k]];
      const double gap = s.ts_ms - (prev.ts_ms + prev.dur_ms);
      const bool engine = in.engine_stages.count(std::string(s.name_view()));
      fm[engine ? "wait.engine" : "wait.cpu"] += gap;
      fm["wait.stage"] += gap;
    }
  }

  // A layer's per-frame time is the median over traced frames of the
  // frame's total self time in it.
  const auto frame_median = [&](const auto& per_frame,
                                const std::string& key) {
    std::vector<double> v;
    for (const auto& f : trace.frames) {
      const auto fit = per_frame.find(f);
      double x = 0.0;
      if (fit != per_frame.end()) {
        const auto it = fit->second.find(key);
        if (it != fit->second.end()) x = it->second;
      }
      v.push_back(x);
    }
    return median(v);
  };
  for (const auto& spec : per_layer_specs())
    if (std::string(spec.unit) == "ms")
      out.per_layer[spec.name] = frame_median(frame_metric, spec.name);

  const double wall_ms = trace.wall_ms;
  if (in.workload == "serve4") {
    out.per_layer["serve.queue_ms"] = frame_median(frame_metric, "wait.queue");
    out.per_layer["serve.engine_wait_ms"] =
        frame_median(frame_metric, "wait.engine");
    out.per_layer["serve.cpu_wait_ms"] = frame_median(frame_metric, "wait.cpu");
    out.per_layer["serve.engine_busy_share"] = engine_busy / wall_ms;
    out.per_layer["serve.worker_busy_share"] = busy / (wall_ms * kWorkers);
    out.per_layer["serve.rejected"] = static_cast<double>(in.rejected);
  } else if (in.workload == "demo64") {
    out.per_layer["pipeline.stage_wait_ms"] =
        frame_median(frame_metric, "wait.stage");
    out.per_layer["pipeline.worker_busy_share"] = busy / (wall_ms * kWorkers);
  }

  // detect::decode_region and nms, timed on the traced frames' own network
  // outputs with the demo's thresholds. The object_boxing stage makes the
  // same two calls; the program's trace has no span inside it.
  {
    const pipeline::DemoConfig dc;
    const nn::RegionConfig& rc = region_of(*in.net);
    std::vector<double> decode_ms, nms_ms;
    double candidates = 0.0;
    using Clock = std::chrono::steady_clock;
    const auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    for (const Tensor& features : trace.outputs) {
      const auto t0 = Clock::now();
      auto dets = detect::decode_region(features, rc, dc.detect_threshold);
      const auto t1 = Clock::now();
      candidates += static_cast<double>(dets.size());
      dets = detect::nms(std::move(dets), dc.nms_iou);
      const auto t2 = Clock::now();
      decode_ms.push_back(ms(t0, t1));
      nms_ms.push_back(ms(t1, t2));
    }
    out.per_layer["detect.decode_ms"] = median(decode_ms);
    out.per_layer["detect.nms_ms"] = median(nms_ms);
    out.per_layer["detect.nms_candidates"] =
        candidates / static_cast<double>(trace.outputs.size());
  }

  for (const char* c :
       {"compute", "weight_dma", "fmap_dma", "overhead", "pool"}) {
    const std::string key = std::string("fabric.") + c + "_cycles";
    const auto it = out.simulated.find(key);
    if (it != out.simulated.end()) out.per_layer[key] = it->second;
  }
  const auto cycles = out.simulated.find("fabric.total_cycles");
  if (cycles != out.simulated.end())
    out.per_layer["fabric.host_ns_per_cycle"] =
        out.per_layer["fabric.host_ms"] * 1e6 / cycles->second;
  if (out.per_layer["gemm.first_layer_ms"] > 0.0)
    out.per_layer["gemm.first_layer_gops"] =
        static_cast<double>(in.net->layer(0).ops().ops) /
        (out.per_layer["gemm.first_layer_ms"] * 1e6);

  const double traced_p50 = median(trace.latency_ms);
  out.per_layer["trace.overhead_ms"] = traced_p50 - in.untraced_p50;

  // Self-time table: every span name, the median over frames of its self
  // time per frame.
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, n] : calls)
    rows.push_back({frame_median(frame_span, name), name});
  std::sort(rows.rbegin(), rows.rend());
  const auto frames = static_cast<double>(trace.frames.size());
  double total = 0.0;
  for (const auto& row : rows) total += row.first;
  char line[256];
  std::snprintf(line, sizeof line,
                "traced frames %zu: frame p50 %.3f ms traced, %.3f ms "
                "untraced, overhead %+.3f ms",
                trace.frames.size(), traced_p50, in.untraced_p50,
                traced_p50 - in.untraced_p50);
  out.self_time_table.push_back(line);
  std::snprintf(line, sizeof line, "%-26s %12s %7s %9s  %s", "span",
                "self ms p50", "share", "calls/frm", "metric");
  out.self_time_table.push_back(line);
  for (const auto& [ms, name] : rows) {
    const auto m = metric_of.find(name);
    std::string metric = m != metric_of.end() ? m->second : "";
    if (name == "frame") metric = "(unattributed)";
    std::snprintf(line, sizeof line, "%-26s %12.4f %6.2f%% %9.2f  %s",
                  name.c_str(), ms, total > 0.0 ? 100.0 * ms / total : 0.0,
                  static_cast<double>(calls.at(name)) / frames,
                  metric.c_str());
    out.self_time_table.push_back(line);
  }

  if (in.workload == "paper416") {
    // The layer and stage spans under each traced frame's root, summed per
    // frame; the root's own self time is what they leave unattributed.
    // Traced and untraced frames alternate, so host drift cancels.
    std::vector<double> attributed;
    for (const auto& f : trace.frames) {
      double sum = 0.0;
      const auto it = frame_span.find(f);
      if (it != frame_span.end())
        for (const auto& [name, ms] : it->second)
          if (name != "frame") sum += ms;
      attributed.push_back(sum);
    }
    const double sum_p50 = median(attributed);
    const double off = (sum_p50 - in.untraced_p50) / in.untraced_p50;
    const bool checked = std::min(attributed.size(), in.untraced_frames) >=
                         kSelfSumMinFrames;
    const bool pass = !checked || std::abs(off) <= kSelfSumTolerance;
    std::snprintf(line, sizeof line,
                  "check: per-frame sum of layer and stage self times, "
                  "p50 %.3f ms vs untraced frame_ms_p50: %+.1f%% "
                  "(tolerance %.0f%%) %s",
                  sum_p50, 100.0 * off, 100.0 * kSelfSumTolerance,
                  !checked ? "NOT CHECKED (fewer than 5 frames a side)"
                  : pass   ? "PASS"
                           : "FAIL");
    out.self_time_table.insert(out.self_time_table.begin() + 1, line);
    if (!pass)
      out.errors.push_back("layer self times do not add up to the frame");
  }
}

// ---------------------------------------------------------------------------
// Workloads

/// The timed part of a run: the untraced window and, in a traced run, the
/// traced section. The sampled frames come from the last of the two.
template <typename RunFor, typename SampleNext>
void timed_sections(Harness& h, const Args& a, Outcome& out, RunFor&& run_for,
                    SampleNext&& sample) {
  // A traced run splits its time between the untraced window (the
  // reference for the overhead) and the traced section.
  const double window_s = a.trace ? a.seconds / 2 : a.seconds;
  if (!a.trace) sample();
  h.begin_window();
  run_for(window_s);
  h.end_window(out);
  if (a.trace) {
    sample();
    h.set_traced(true);
    run_for(window_s);
    h.set_traced(false);
    h.collect_trace();
  }
  h.sample_none();
}

/// paper416: one client, one frame at a time; the Fig. 5 stages run in
/// order on the calling thread, so no scheduler is involved. A traced
/// frame carries a "frame" root span and a "stage:<name>" span per stage,
/// as a Pipeline worker records them.
Outcome run_paper416(const Args& a) {
  Outcome out;
  HostProbe probe(1);
  Hetero m;
  repeat_setup(out, probe, [&] {
    m = {};
    m = build_hetero(416, a.seed, 1, a.work_dir + "/binparam-paper416");
    return m.simulated;
  });
  nn::Network& net = *m.nets[0];
  Harness h({-1}, probe);
  auto stages = pipeline::make_demo_stages(net, pipeline::DemoConfig{});
  std::vector<std::string> stage_names;
  for (const auto& st : stages) stage_names.push_back("stage:" + st.name);
  video::SyntheticCamera camera({.width = 640, .height = 480, .seed = a.seed});
  auto* collector = &TraceCollector::global();

  const auto run_frame = [&] {
    const int64_t seq = camera.frames_captured();
    telemetry::ScopedTraceContext context(-1, seq);
    telemetry::TraceSpan root(collector, "frame", -1, seq);
    video::Frame f = h.capture(0, camera);
    for (size_t i = 0; i < stages.size(); ++i) {
      telemetry::TraceSpan span(collector, stage_names[i], -1, seq);
      stages[i].work(f);
    }
    h.deliver(0, f);
  };

  run_frame();  // warm-up
  h.sample_next({camera.frames_captured()});
  h.begin_window();
  // A traced run alternates traced and untraced frames within one window,
  // so the untraced reference sees the same host conditions; it ends on
  // an untraced frame.
  const double deadline = h.now_ms() + a.seconds * 1000.0;
  bool traced = false;
  do {
    if (a.trace) h.set_traced(traced = !traced);
    h.segment(run_frame);
  } while (h.now_ms() < deadline || traced);
  h.set_traced(false);
  h.end_window(out);
  h.sample_none();
  if (a.trace) h.collect_trace();
  h.account(out);
  verify_golden(h, 416, a.seed, m.nets, out);
  if (a.trace)
    analyze_trace(h.trace(),
                  {.workload = a.workload,
                   .net = &net,
                   .untraced_p50 = median(out.measured.frame_ms),
                   .untraced_frames = out.measured.frame_ms.size()},
                  out);
  return out;
}

/// serve4: kStreams camera streams on one StreamServer, each keeping
/// kOutstanding frames in flight (closed loop), submitted from this thread.
Outcome run_serve4(const Args& a) {
  Outcome out;
  HostProbe probe(kWorkers);
  Hetero m;
  repeat_setup(out, probe, [&] {
    m = {};
    m = build_hetero(kServeSize, a.seed, kStreams,
                     a.work_dir + "/binparam-serve4");
    return m.simulated;
  });
  // The harness outlives the server, whose workers deliver into it; it is
  // made once the session ids are known.
  std::unique_ptr<Harness> hp;
  serve::ServerOptions options;
  options.num_workers = kWorkers;
  serve::StreamServer server(options);
  std::vector<int64_t> sessions;
  std::set<std::string> engine_stages;
  std::vector<std::unique_ptr<video::SyntheticCamera>> cameras;
  for (int s = 0; s < kStreams; ++s) {
    serve::SessionConfig sc;
    sc.name = "stream" + std::to_string(s);
    sc.stages = serve::demo_session_stages(*m.nets[static_cast<size_t>(s)],
                                           pipeline::DemoConfig{},
                                           serve::EnginePolicy::kOffloadLayers);
    for (const auto& st : sc.stages)
      if (st.uses_engine) engine_stages.insert("stage:" + st.name);
    sc.deliver = [&hp, s](video::Frame&& f) { hp->deliver(s, f); };
    sessions.push_back(server.open_session(std::move(sc)));
    cameras.push_back(std::make_unique<video::SyntheticCamera>(
        video::CameraConfig{.width = 128,
                            .height = 96,
                            .seed = a.seed * kStreams +
                                    static_cast<uint64_t>(s)}));
  }
  hp = std::make_unique<Harness>(sessions, probe);
  Harness& h = *hp;
  server.start();

  const auto run_for = [&](double seconds) {
    const double end = h.now_ms() + seconds * 1000.0;
    int64_t since_collect = 0;
    while (h.now_ms() < end) h.segment([&] {
      const double deadline =
          std::min(end, h.now_ms() + kServeSegmentSeconds * 1000.0);
      while (true) {
        const int64_t s = h.wait_for_free_stream(kOutstanding, deadline);
        if (s < 0) break;
        auto& camera = *cameras[static_cast<size_t>(s)];
        video::Frame f = h.capture(s, camera);
        const int64_t seq = f.sequence;
        if (server.submit(sessions[static_cast<size_t>(s)], std::move(f)) !=
            serve::ServeResult::kAccepted)
          h.refused(s, seq);
        if (h.traced() && ++since_collect == kTraceSliceFrames) {
          server.drain();
          h.collect_trace();
          since_collect = 0;
        }
      }
      server.drain();
    });
  };
  const auto sample = [&] {
    std::vector<int64_t> next;
    for (const auto& c : cameras) next.push_back(c->frames_captured());
    h.sample_next(next);
  };

  run_for(kWarmupSeconds);
  timed_sections(h, a, out, run_for, sample);
  server.stop();
  h.account(out);
  for (int s = 0; s < kStreams; ++s) {
    const int64_t id = sessions[static_cast<size_t>(s)];
    if (server.quarantined(id))
      out.errors.push_back("stream " + std::to_string(s) + " quarantined: " +
                           server.fault_message(id));
  }
  verify_golden(h, kServeSize, a.seed, m.nets, out);
  if (a.trace)
    analyze_trace(h.trace(),
                  {.workload = a.workload,
                   .net = m.nets[0].get(),
                   .engine_stages = engine_stages,
                   .rejected = h.rejected(),
                   .untraced_p50 = median(out.measured.frame_ms)},
                  out);
  return out;
}

/// demo64: `tincy demo` — the Fig. 5 stages of float Tincy @64 on the
/// 4-worker Pipeline, fed by a 128x96 camera. The Pipeline is assembled as
/// run_demo assembles it, with a source and sink that time every frame;
/// run_demo itself runs once more at the end as an ordering check.
Outcome run_demo64(const Args& a) {
  Outcome out;
  HostProbe probe(kWorkers);
  std::unique_ptr<nn::Network> net;
  repeat_setup(out, probe, [&] {
    net.reset();
    net = build_demo_net(a.seed);
    return simulate(*net, nullptr);
  });
  Harness h({-1}, probe);
  const pipeline::DemoConfig cfg;
  video::SyntheticCamera camera({.width = 128, .height = 96, .seed = a.seed});
  pipeline::PipelineOptions po;
  po.stages = pipeline::make_demo_stages(*net, cfg);
  po.num_workers = cfg.num_workers;
  po.source = [&] { return h.capture(0, camera); };
  po.sink = [&](const video::Frame& f) { h.deliver(0, f); };
  pipeline::Pipeline pipe(std::move(po));

  const auto run_for = [&](double seconds) {
    const double deadline = h.now_ms() + seconds * 1000.0;
    do {
      h.segment([&] { pipe.run(kDemoChunk); });
      if (h.traced()) h.collect_trace();
    } while (h.now_ms() < deadline);
  };
  const auto sample = [&] { h.sample_next({camera.frames_captured()}); };

  pipe.run(kDemoChunk / 2);  // warm-up
  timed_sections(h, a, out, run_for, sample);
  h.account(out);

  // run_demo itself, as `tincy demo` calls it.
  constexpr int64_t kSmokeFrames = 16;
  video::SyntheticCamera smoke_camera(
      {.width = 128, .height = 96, .seed = a.seed});
  video::OrderCheckingSink smoke_sink;
  pipeline::run_demo(smoke_camera, *net, smoke_sink, kSmokeFrames, cfg);
  out.attempted += kSmokeFrames;
  const int64_t lost = kSmokeFrames - smoke_sink.frames_received();
  if (lost != 0 || !smoke_sink.in_order()) {
    out.failed += std::max<int64_t>(lost, 1);
    out.errors.push_back("run_demo lost or reordered frames");
  }

  // The sampled frame against a whole-network forward of the same input.
  const Sample& smp = h.sample(0);
  if (smp.sequence < 0) {
    ++out.failed;
    out.errors.push_back("sampled frame never delivered");
  } else {
    const Tensor& ref = net->forward(smp.boxed);
    const int64_t diff = mismatches(ref, smp.features);
    const bool dets_equal =
        same_detections(box_objects(*net, ref, smp.image), smp.detections);
    std::printf("# forward check frame %lld: output %lld/%lld mismatches, "
                "detections %s\n",
                static_cast<long long>(smp.sequence),
                static_cast<long long>(diff),
                static_cast<long long>(ref.numel()),
                dets_equal ? "equal" : "DIFFER");
    if (diff != 0 || !dets_equal) {
      ++out.failed;
      out.errors.push_back("pipelined output differs from Network::forward");
    }
  }
  if (a.trace)
    analyze_trace(h.trace(),
                  {.workload = a.workload,
                   .net = net.get(),
                   .untraced_p50 = median(out.measured.frame_ms)},
                  out);
  return out;
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Outcome run_workload(const Args& args) {
  offload::register_standard_backends();
  if (args.workload == "paper416") return run_paper416(args);
  if (args.workload == "serve4") return run_serve4(args);
  if (args.workload == "demo64") return run_demo64(args);
  throw Error("unknown workload '" + args.workload +
              "' (paper416, serve4, demo64)");
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"fabric.host_ms", "ms"},
      {"fabric.layer0.host_ms", "ms"},
      {"fabric.layer1.host_ms", "ms"},
      {"fabric.layer2.host_ms", "ms"},
      {"fabric.layer3.host_ms", "ms"},
      {"fabric.layer4.host_ms", "ms"},
      {"fabric.layer5.host_ms", "ms"},
      {"fabric.layer6.host_ms", "ms"},
      {"fabric.host_ns_per_cycle", "ns"},
      {"fabric.compute_cycles", "cycles"},
      {"fabric.weight_dma_cycles", "cycles"},
      {"fabric.fmap_dma_cycles", "cycles"},
      {"fabric.overhead_cycles", "cycles"},
      {"fabric.pool_cycles", "cycles"},
      {"offload.convert_ms", "ms"},
      {"gemm.first_layer_ms", "ms"},
      {"gemm.output_layer_ms", "ms"},
      {"gemm.float_hidden_ms", "ms"},
      {"gemm.first_layer_gops", "GOP/s"},
      {"nn.maxpool_ms", "ms"},
      {"nn.region_ms", "ms"},
      {"detect.decode_ms", "ms"},
      {"detect.nms_ms", "ms"},
      {"detect.nms_candidates", "count"},
      {"data.letterbox_ms", "ms"},
      {"video.read_ms", "ms"},
      {"video.draw_ms", "ms"},
      {"serve.queue_ms", "ms"},
      {"serve.engine_wait_ms", "ms"},
      {"serve.cpu_wait_ms", "ms"},
      {"serve.engine_busy_share", "ratio"},
      {"serve.worker_busy_share", "ratio"},
      {"serve.rejected", "count"},
      {"pipeline.stage_wait_ms", "ms"},
      {"pipeline.worker_busy_share", "ratio"},
      {"trace.overhead_ms", "ms"},
  };
  return specs;
}

}  // namespace perfbench
