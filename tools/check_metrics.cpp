// Schema checker for `tincy --metrics-json` output (the tier2-metrics
// and tier2-serve CTest labels). Validates that the document parses as
// telemetry schema v1 and contains the observability surface the demo
// pipeline promises: per-layer latency histograms and its serving
// session (a Pipeline is one StreamServer session) — a latency histogram
// spanning the delivered frames and one busy_ms / wait_ms sample per
// frame and stage — with --frames N delivering exactly N frames. With
// --serve-frames N it validates the same session surface for every
// session of `tincy serve-sim`, the serve.session.<id>.frames counters
// summing to N, plus the serve.arbiter.* metrics.
//
// With --slo it gates a soak run (`multistream --soak --metrics-json`):
// every session latency histogram must carry a p99 estimate within the
// bound (default 150 ms, override with --p99-ms X) — both the
// cumulative histogram and, when it holds samples, the sliding-window
// one (`.latency_ms.window`, the live tail) — and the quarantine
// surface must be consistent — a session is quarantined iff it recorded
// faults. The offending session's telemetry summary is printed on a
// violation.
//
// With --batching it validates the gang-scheduling surface of a batched
// run (`multistream --batched --metrics-json`): the
// serve.arbiter.batch_size histogram and the fabric.dma_* counters must
// be present and internally consistent — every frame coalesced beyond
// the first of its pass is one amortized weight stream (amortized ==
// histogram sum − histogram count), and the saved cycles are
// (batch_size − 1) × weight_dma per coalesced pass, so saved is a
// positive multiple of amortized exactly when any batching happened.
//
// With --trace <file> it additionally validates a Chrome trace written
// by `tincy --trace` (or the flight recorder): complete spans on one
// track must nest, async frame/queue begin/end events must pair up, the
// layer spans attributed to a frame must fit inside that frame's
// submit→delivery span, and the gang instants must be internally
// consistent (one leader per grant, leader batch == seats) and agree
// with the serve.arbiter.* metrics in the metrics document.
//
// Usage: tincy_check_metrics <metrics.json> [--trace <trace.json>]
//          [--frames N | --serve-frames N | --slo [--p99-ms X] |
//           --batching] [--gemm]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"

using namespace tincy;

namespace {

int fail(const std::string& what) {
  std::fprintf(stderr, "metrics check FAILED: %s\n", what.c_str());
  return 1;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tincy_check_metrics <metrics.json> "
                 "[--trace <trace.json>] [--frames N | --serve-frames N | "
                 "--slo [--p99-ms X] | --batching] [--gemm]\n");
    return 2;
  }
  int64_t expect_frames = -1;
  int64_t expect_serve_frames = -1;
  bool expect_gemm = false;
  bool check_slo = false;
  bool check_batching = false;
  double slo_p99_ms = 150.0;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc)
      expect_frames = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--serve-frames") == 0 && i + 1 < argc)
      expect_serve_frames = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--gemm") == 0) expect_gemm = true;
    if (std::strcmp(argv[i], "--slo") == 0) check_slo = true;
    if (std::strcmp(argv[i], "--batching") == 0) check_batching = true;
    if (std::strcmp(argv[i], "--p99-ms") == 0 && i + 1 < argc)
      slo_p99_ms = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[i + 1];
  }

  std::ifstream f(argv[1]);
  if (!f.good()) return fail(std::string("cannot open ") + argv[1]);
  std::ostringstream buf;
  buf << f.rdbuf();

  telemetry::Snapshot snapshot;
  try {
    snapshot = telemetry::parse_snapshot(buf.str());
  } catch (const Error& e) {
    return fail(e.what());
  }

  // Internal consistency of every histogram.
  for (const auto& h : snapshot.histograms) {
    const auto& s = h.stats;
    if (s.count < 0) return fail(h.name + ": negative count");
    if (s.count > 0) {
      if (s.min > s.max) return fail(h.name + ": min > max");
      if (s.p50 < s.min || s.p50 > s.max)
        return fail(h.name + ": p50 outside [min, max]");
      if (s.p95 < s.p50 - 1e-9) return fail(h.name + ": p95 < p50");
      if (s.p95 > s.max + 1e-9) return fail(h.name + ": p95 > max");
      // p99 == 0 means a pre-p99 document; ordering applies when present.
      if (s.p99 > 0.0 && s.p99 < s.p95 - 1e-9)
        return fail(h.name + ": p99 < p95");
      if (s.p99 > s.max + 1e-9) return fail(h.name + ": p99 > max");
      if (s.sum + 1e-9 < s.max) return fail(h.name + ": sum < max");
    }
  }

  // Trace mode: structural validation of a Chrome trace-event document,
  // cross-checked against the metrics snapshot from the same run.
  if (!trace_path.empty()) {
    std::ifstream tf(trace_path);
    if (!tf.good()) return fail("cannot open " + trace_path);
    std::ostringstream tbuf;
    tbuf << tf.rdbuf();
    std::vector<telemetry::TraceEvent> events;
    try {
      events = telemetry::parse_chrome_trace(tbuf.str());
    } catch (const Error& e) {
      return fail(e.what());
    }
    if (events.empty()) return fail("trace has no events");
    std::stable_sort(events.begin(), events.end(),
                     [](const telemetry::TraceEvent& a,
                        const telemetry::TraceEvent& b) {
                       return a.ts_ms != b.ts_ms ? a.ts_ms < b.ts_ms
                                                 : a.dur_ms > b.dur_ms;
                     });
    // Export rounds timestamps to 1e-6 ms; containment below is checked
    // against a slightly coarser epsilon.
    constexpr double kEps = 1e-3;

    // Complete spans on one track come from one thread, so they must
    // obey stack discipline: a span overlapping an open span must end
    // within it.
    std::map<int32_t, std::vector<double>> open_ends;
    int64_t x_spans = 0;
    for (const auto& e : events) {
      if (e.phase != telemetry::TracePhase::kComplete) continue;
      ++x_spans;
      if (e.dur_ms < -kEps)
        return fail(std::string(e.name_view()) + ": negative span duration");
      auto& stack = open_ends[e.tid];
      while (!stack.empty() && stack.back() <= e.ts_ms + kEps)
        stack.pop_back();
      const double end = e.ts_ms + e.dur_ms;
      if (!stack.empty() && end > stack.back() + kEps)
        return fail(std::string(e.name_view()) + " @" +
                    std::to_string(e.ts_ms) +
                    " ms: overlaps the enclosing span without nesting");
      stack.push_back(end);
    }

    // Async begin/end events pair up per (name, session, frame); the
    // layer spans each frame will be checked against are summed on the
    // side.
    struct AsyncSpan {
      int begins = 0, ends = 0;
      double begin = 0.0, end = 0.0;
      std::string outcome;
    };
    std::map<std::tuple<std::string, int64_t, int64_t>, AsyncSpan> asyncs;
    std::map<std::pair<int64_t, int64_t>, double> frame_layer_ms;
    for (const auto& e : events) {
      if (e.phase == telemetry::TracePhase::kComplete) {
        const auto name = e.name_view();
        if (name.rfind("net.layer.", 0) == 0 ||
            name.rfind("fabric.layer", 0) == 0)
          frame_layer_ms[{e.session, e.frame}] += e.dur_ms;
        continue;
      }
      if (e.phase == telemetry::TracePhase::kInstant) continue;
      auto& a = asyncs[{std::string(e.name_view()), e.session, e.frame}];
      if (e.phase == telemetry::TracePhase::kAsyncBegin) {
        ++a.begins;
        a.begin = e.ts_ms;
      } else {
        ++a.ends;
        a.end = e.ts_ms;
        a.outcome = telemetry::trace_arg_str(e, "outcome");
      }
    }
    int64_t frames_traced = 0, frames_delivered = 0;
    for (const auto& [key, a] : asyncs) {
      const auto& [name, session, frame] = key;
      const std::string where = name + " s" + std::to_string(session) +
                                ".f" + std::to_string(frame);
      if (a.begins != 1 || a.ends != 1)
        return fail(where + ": " + std::to_string(a.begins) + " begin(s), " +
                    std::to_string(a.ends) + " end(s)");
      if (a.end + kEps < a.begin) return fail(where + ": ends before begin");
      if (name != "frame") continue;
      ++frames_traced;
      if (a.outcome.empty())
        return fail(where + ": frame end carries no outcome");
      if (a.outcome == "delivered") ++frames_delivered;
      // The layer work attributed to a frame must fit inside its
      // submit -> delivery window (gang ride-alongs simply have none).
      const auto it = frame_layer_ms.find({session, frame});
      if (it != frame_layer_ms.end() &&
          it->second > (a.end - a.begin) + 0.01 + kEps)
        return fail(where + ": layer spans sum to " +
                    std::to_string(it->second) + " ms, frame span is " +
                    std::to_string(a.end - a.begin) + " ms");
    }
    if (frames_traced == 0) return fail("trace has no frame async spans");

    // Gang instants: every grant has exactly one leader whose batch size
    // counts all seats, and the grant population agrees with the
    // serve.arbiter.* metrics of the same run.
    struct Gang {
      int leaders = 0, members = 0;
      int64_t batch = -1;
    };
    std::map<int64_t, Gang> gangs;
    for (const auto& e : events) {
      if (e.phase != telemetry::TracePhase::kInstant ||
          e.name_view() != "gang")
        continue;
      const int64_t grant = telemetry::trace_arg_int(e, "grant");
      if (grant < 0) return fail("gang instant without a grant id");
      auto& g = gangs[grant];
      if (telemetry::trace_arg_str(e, "role") == "leader") {
        ++g.leaders;
        g.batch = telemetry::trace_arg_int(e, "batch");
      } else {
        ++g.members;
      }
    }
    int64_t batch_sum = 0;
    for (const auto& [grant, g] : gangs) {
      const std::string where = "gang grant " + std::to_string(grant);
      if (g.leaders != 1)
        return fail(where + ": " + std::to_string(g.leaders) + " leader(s)");
      if (g.batch != 1 + g.members)
        return fail(where + ": leader batch " + std::to_string(g.batch) +
                    " != " + std::to_string(1 + g.members) + " seats");
      batch_sum += g.batch;
    }
    const auto num_grants = static_cast<int64_t>(gangs.size());
    if (snapshot.find_counter("serve.arbiter.grants")) {
      const int64_t grants = snapshot.counter_value("serve.arbiter.grants");
      if (grants != num_grants)
        return fail("trace has " + std::to_string(num_grants) +
                    " gang grants, serve.arbiter.grants is " +
                    std::to_string(grants));
      const auto* bs = snapshot.find_histogram("serve.arbiter.batch_size");
      if (bs && static_cast<int64_t>(bs->stats.sum + 0.5) != batch_sum)
        return fail("trace gang seats sum to " + std::to_string(batch_sum) +
                    ", serve.arbiter.batch_size sums to " +
                    std::to_string(
                        static_cast<int64_t>(bs->stats.sum + 0.5)));
    }

    std::printf("trace OK: %zu events, %lld complete spans, %lld frames "
                "(%lld delivered), %lld gang grants\n",
                events.size(), static_cast<long long>(x_spans),
                static_cast<long long>(frames_traced),
                static_cast<long long>(frames_delivered),
                static_cast<long long>(num_grants));
    // --trace composes with the other modes; alone, it is the check.
    if (expect_frames < 0 && expect_serve_frames < 0 && !check_slo &&
        !check_batching && !expect_gemm)
      return 0;
  }

  // Batching mode: validate the gang-scheduling telemetry surface.
  if (check_batching) {
    const auto* bs = snapshot.find_histogram("serve.arbiter.batch_size");
    if (!bs) return fail("serve.arbiter.batch_size missing");
    const auto& s = bs->stats;
    if (s.count < 1) return fail("serve.arbiter.batch_size: no grants");
    if (s.min < 1.0) return fail("serve.arbiter.batch_size: min < 1");
    const int64_t passes = s.count;
    const int64_t frames = static_cast<int64_t>(s.sum + 0.5);
    if (frames < passes)
      return fail("serve.arbiter.batch_size: sum " + std::to_string(frames) +
                  " < count " + std::to_string(passes));
    const int64_t grants = snapshot.counter_value("serve.arbiter.grants");
    if (grants != passes)
      return fail("serve.arbiter.grants " + std::to_string(grants) +
                  " != batch_size histogram count " + std::to_string(passes));
    if (!snapshot.find_counter("fabric.dma_amortized"))
      return fail("fabric.dma_amortized missing");
    const int64_t amortized = snapshot.counter_value("fabric.dma_amortized");
    // Every frame beyond the first of its pass is one amortized weight
    // stream: amortized == sum(batch − 1) == histogram sum − count.
    if (amortized != frames - passes)
      return fail("fabric.dma_amortized " + std::to_string(amortized) +
                  " != coalesced frames " + std::to_string(frames - passes));
    if (!snapshot.find_counter("fabric.dma_saved_cycles"))
      return fail("fabric.dma_saved_cycles missing");
    const int64_t saved = snapshot.counter_value("fabric.dma_saved_cycles");
    // Saved cycles are (batch − 1) × weight_dma per coalesced pass, so
    // they vanish exactly when nothing was amortized and otherwise carry
    // at least one modeled DMA cycle per amortized stream.
    if ((saved == 0) != (amortized == 0))
      return fail("fabric.dma_saved_cycles " + std::to_string(saved) +
                  " inconsistent with fabric.dma_amortized " +
                  std::to_string(amortized));
    if (saved < amortized)
      return fail("fabric.dma_saved_cycles " + std::to_string(saved) +
                  " < fabric.dma_amortized " + std::to_string(amortized));
    const int64_t bpasses = snapshot.counter_value("fabric.batched_passes");
    const int64_t bframes = snapshot.counter_value("fabric.batched_frames");
    if (bframes - bpasses != amortized)
      return fail("fabric.batched_frames - fabric.batched_passes " +
                  std::to_string(bframes - bpasses) +
                  " != fabric.dma_amortized " + std::to_string(amortized));
    std::printf("metrics OK: %lld engine grants over %lld frames, %lld "
                "weight streams amortized (%lld modeled cycles saved)\n",
                static_cast<long long>(passes),
                static_cast<long long>(frames),
                static_cast<long long>(amortized),
                static_cast<long long>(saved));
    return 0;
  }

  // SLO mode: gate a soak run's tail latency and quarantine accounting.
  if (check_slo) {
    int64_t sessions = 0, gated = 0, quarantined = 0;
    double worst_p99 = 0.0;
    for (const auto& c : snapshot.counters) {
      const bool is_frames = c.name.rfind("serve.session.", 0) == 0 &&
                             ends_with(c.name, ".frames");
      if (!is_frames) continue;
      ++sessions;
      const std::string base = c.name.substr(0, c.name.size() - 7);
      const auto* lat = snapshot.find_histogram(base + ".latency_ms");
      if (!lat) return fail(base + ".latency_ms missing");
      const auto& s = lat->stats;
      if (s.count > 0) {
        ++gated;
        if (s.p99 <= 0.0)
          return fail(base + ".latency_ms: no p99 estimate in document");
        worst_p99 = s.p99 > worst_p99 ? s.p99 : worst_p99;
        if (s.p99 > slo_p99_ms) {
          std::fprintf(stderr,
                       "  %s: count=%lld mean=%.3f p50=%.3f p95=%.3f "
                       "p99=%.3f max=%.3f ms\n",
                       base.c_str(), static_cast<long long>(s.count),
                       s.mean(), s.p50, s.p95, s.p99, s.max);
          return fail(base + ".latency_ms: p99 " + std::to_string(s.p99) +
                      " ms exceeds SLO " + std::to_string(slo_p99_ms) +
                      " ms");
        }
      }
      // The sliding-window histogram gates *live* tail latency: a soak
      // whose cumulative p99 is healthy can still be violating the SLO
      // right now. Gated only when the window saw samples (it decays to
      // empty on an idle session).
      const auto* win = snapshot.find_histogram(base + ".latency_ms.window");
      if (!win) return fail(base + ".latency_ms.window missing");
      if (win->stats.count > 0) {
        if (win->stats.p99 > slo_p99_ms)
          return fail(base + ".latency_ms.window: live p99 " +
                      std::to_string(win->stats.p99) + " ms exceeds SLO " +
                      std::to_string(slo_p99_ms) + " ms");
        worst_p99 = win->stats.p99 > worst_p99 ? win->stats.p99 : worst_p99;
      }
      // A session is quarantined iff it recorded faults; shed/dropped
      // counters must exist so the accounting surface is complete.
      const auto* q = snapshot.find_gauge(base + ".quarantined");
      if (!q) return fail(base + ".quarantined missing");
      const int64_t faults = snapshot.counter_value(base + ".faults");
      if ((q->value != 0.0) != (faults > 0))
        return fail(base + ": quarantined gauge " +
                    std::to_string(q->value) + " inconsistent with faults " +
                    std::to_string(faults));
      if (q->value != 0.0) ++quarantined;
      if (!snapshot.find_counter(base + ".shed"))
        return fail(base + ".shed missing");
      if (!snapshot.find_counter(base + ".dropped"))
        return fail(base + ".dropped missing");
    }
    if (sessions == 0) return fail("no serve.session.*.frames counters");
    std::printf("metrics OK: %lld session(s), %lld with latency gated, "
                "worst p99 %.2f ms <= SLO %.1f ms, %lld quarantined\n",
                static_cast<long long>(sessions),
                static_cast<long long>(gated), worst_p99, slo_p99_ms,
                static_cast<long long>(quarantined));
    return 0;
  }

  // The serve.* session surface, shared by the serving and demo modes
  // (a demo Pipeline is one session): per session a latency histogram
  // spanning exactly its delivered frames, and one busy_ms and one
  // wait_ms sample per frame for each stage. Counts the sessions and
  // their frames; returns what is wrong, or "".
  int64_t sessions = 0, frames_sum = 0;
  const auto check_sessions = [&]() -> std::string {
    for (const auto& c : snapshot.counters) {
      const bool is_frames = c.name.rfind("serve.session.", 0) == 0 &&
                             ends_with(c.name, ".frames");
      if (!is_frames) continue;
      ++sessions;
      frames_sum += c.value;
      const std::string base = c.name.substr(0, c.name.size() - 7);
      const auto* lat = snapshot.find_histogram(base + ".latency_ms");
      if (!lat) return base + ".latency_ms missing";
      if (lat->stats.count != c.value)
        return base + ".latency_ms: " + std::to_string(lat->stats.count) +
               " spans, counter " + std::to_string(c.value);
      for (const char* name : {".rejected", ".dropped"})
        if (!snapshot.find_counter(base + name)) return base + name + " missing";
      for (const char* name : {".queue_depth", ".fps"})
        if (!snapshot.find_gauge(base + name)) return base + name + " missing";
      int64_t busy = 0, wait = 0;
      for (const auto* h : snapshot.histograms_with_prefix(base + ".stage.")) {
        if (ends_with(h->name, ".busy_ms"))
          ++busy;
        else if (ends_with(h->name, ".wait_ms"))
          ++wait;
        else
          continue;
        if (h->stats.count != c.value)
          return h->name + ": " + std::to_string(h->stats.count) +
                 " samples, " + std::to_string(c.value) + " frames";
      }
      if (busy == 0 || busy != wait)
        return base + ": " + std::to_string(busy) + " busy_ms / " +
               std::to_string(wait) + " wait_ms stage histograms";
    }
    return sessions == 0 ? "no serve.session.*.frames counters" : "";
  };

  // Serving-surface mode: validate the serve.* namespace and stop.
  if (expect_serve_frames >= 0) {
    if (const auto wrong = check_sessions(); !wrong.empty())
      return fail(wrong);
    if (frames_sum != expect_serve_frames)
      return fail("serve.session.*.frames sum to " +
                  std::to_string(frames_sum) + ", expected " +
                  std::to_string(expect_serve_frames));
    if (!snapshot.find_counter("serve.arbiter.grants"))
      return fail("serve.arbiter.grants missing");
    if (!snapshot.find_gauge("serve.arbiter.queue_depth"))
      return fail("serve.arbiter.queue_depth missing");
    std::printf("metrics OK: %lld serving session(s), %lld frames\n",
                static_cast<long long>(sessions),
                static_cast<long long>(frames_sum));
    return 0;
  }

  // GEMM-engine surface: the packed lowp path must have reported its
  // pack/compute split and parallelism (see docs/observability.md).
  if (expect_gemm) {
    const auto* pack = snapshot.find_histogram("gemm.pack_ms");
    if (!pack) return fail("gemm.pack_ms missing");
    if (pack->stats.count < 1) return fail("gemm.pack_ms: no pack spans");
    const auto* packed = snapshot.find_histogram("gemm.packed_ms");
    if (!packed) return fail("gemm.packed_ms missing");
    if (packed->stats.count < 1) return fail("gemm.packed_ms: no spans");
    if (!snapshot.find_gauge("gemm.threads"))
      return fail("gemm.threads missing");
    if (snapshot.gauge_value("gemm.threads") < 1.0)
      return fail("gemm.threads < 1");
  }

  // Per-layer latency histograms from the disintegrated forward pass.
  int64_t layers = 0;
  for (const auto* h : snapshot.histograms_with_prefix("net.layer.")) {
    if (h->stats.count <= 0) return fail(h->name + ": empty layer histogram");
    ++layers;
  }
  if (layers == 0) return fail("no net.layer.* histograms");

  // The demo pipeline's session: stage samples == frames delivered.
  if (const auto wrong = check_sessions(); !wrong.empty()) return fail(wrong);
  if (expect_frames >= 0 && frames_sum != expect_frames)
    return fail("serve.session.*.frames sum to " + std::to_string(frames_sum) +
                ", expected " + std::to_string(expect_frames));

  std::printf("metrics OK: %lld layer histogram(s), %lld frames\n",
              static_cast<long long>(layers),
              static_cast<long long>(frames_sum));
  return 0;
}
