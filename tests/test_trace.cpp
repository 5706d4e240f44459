// Tracing + flight-recorder + windowed-metrics suite (src/telemetry/trace,
// the windowed half of src/telemetry/metrics, and the StreamServer's
// observability surface). Like test_serve, this is a TSan target: the
// concurrent-emit test races writers against a snapshotting reader.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/errors.hpp"
#include "serve/server.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "video/frame.hpp"


namespace tincy::telemetry {
namespace {

TEST(TraceCollector, DisabledCollectorRetainsNothing) {
  TraceCollector tc(64);
  tc.instant("noop", 0, 0);
  {
    TraceSpan span(&tc, "noop-span", 0, 0);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tc.snapshot().empty());
}

TEST(TraceCollector, EmitSnapshotRoundTrip) {
  TraceCollector tc(64);
  tc.set_enabled(true);
  tc.async_begin("frame", 3, 7);
  tc.instant("gang", 3, 7, "\"role\":\"leader\",\"grant\":5,\"batch\":2");
  tc.emit(TracePhase::kComplete, "stage:engine", 3, 7, "\"batch\":2",
          /*dur_ms=*/1.5, /*ts_ms=*/2.0);
  tc.async_end("frame", 3, 7, "\"outcome\":\"delivered\"");

  const auto events = tc.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // snapshot() sorts by timestamp; the backdated complete span (ts 2.0)
  // may land anywhere, so look events up by name.
  const TraceEvent* gang = nullptr;
  const TraceEvent* stage = nullptr;
  for (const auto& e : events) {
    if (e.name_view() == "gang") gang = &e;
    if (e.name_view() == "stage:engine") stage = &e;
  }
  ASSERT_NE(gang, nullptr);
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(gang->session, 3);
  EXPECT_EQ(gang->frame, 7);
  EXPECT_EQ(trace_arg_int(*gang, "grant"), 5);
  EXPECT_EQ(trace_arg_int(*gang, "batch"), 2);
  EXPECT_EQ(trace_arg_str(*gang, "role"), "leader");
  EXPECT_EQ(stage->phase, TracePhase::kComplete);
  EXPECT_DOUBLE_EQ(stage->ts_ms, 2.0);
  EXPECT_DOUBLE_EQ(stage->dur_ms, 1.5);
}

TEST(TraceCollector, RingWrapsKeepingTheNewestEvents) {
  constexpr int64_t kCapacity = 16;
  TraceCollector tc(kCapacity);
  tc.set_enabled(true);
  for (int64_t i = 0; i < 100; ++i) tc.instant("tick", 0, i);
  const auto events = tc.snapshot();
  // Once wrapped, the reader conservatively discards the slot the writer
  // would claim next, so a full ring yields kCapacity - 1 events — the
  // newest ones, oldest first.
  constexpr int64_t kKept = kCapacity - 1;
  ASSERT_EQ(events.size(), static_cast<size_t>(kKept));
  for (int64_t i = 0; i < kKept; ++i)
    EXPECT_EQ(events[static_cast<size_t>(i)].frame, 100 - kKept + i);
}

TEST(TraceCollector, ResetDiscardsRetainedEvents) {
  TraceCollector tc(32);
  tc.set_enabled(true);
  tc.instant("before", 0, 0);
  tc.reset();
  EXPECT_TRUE(tc.snapshot().empty());
  tc.instant("after", 0, 1);
  const auto events = tc.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name_view(), "after");
}

TEST(TraceCollector, SessionTailFiltersAndBounds) {
  TraceCollector tc(256);
  tc.set_enabled(true);
  for (int64_t i = 0; i < 20; ++i) {
    tc.instant("a", 1, i);
    tc.instant("b", 2, i);
  }
  const auto tail = tc.session_tail(1, 5);
  ASSERT_EQ(tail.size(), 5u);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].session, 1);
    EXPECT_EQ(tail[i].frame, 15 + static_cast<int64_t>(i));
  }
}

// The TSan race target: writers hammer their per-thread rings while a
// reader snapshots concurrently. Every event that comes out must be
// internally consistent (no torn name/args/id combinations).
TEST(TraceCollector, ConcurrentEmitAndSnapshotStaysConsistent) {
  constexpr int kWriters = 4;
  constexpr int64_t kEmitsPerWriter = 20000;
  TraceCollector tc(128);
  tc.set_enabled(true);

  std::vector<std::string> names;
  for (int w = 0; w < kWriters; ++w) names.push_back("w" + std::to_string(w));

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& e : tc.snapshot()) {
        // Writer w emits (session w, frame i, args "v":w*kEmits+i); a
        // torn slot would break the relation.
        const int64_t w = e.session;
        ASSERT_GE(w, 0);
        ASSERT_LT(w, kWriters);
        ASSERT_EQ(e.name_view(), names[static_cast<size_t>(w)]);
        ASSERT_EQ(trace_arg_int(e, "v"), w * kEmitsPerWriter + e.frame);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string& name = names[static_cast<size_t>(w)];
      for (int64_t i = 0; i < kEmitsPerWriter; ++i) {
        char args[32];
        std::snprintf(args, sizeof args, "\"v\":%lld",
                      static_cast<long long>(w * kEmitsPerWriter + i));
        tc.instant(name, w, i, args);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Quiescent read: every writer's retained window is a contiguous,
  // newest suffix of what it emitted.
  std::vector<int64_t> last_seen(kWriters, -1);
  std::vector<int64_t> count(kWriters, 0);
  for (const auto& e : tc.snapshot()) {
    const auto w = static_cast<size_t>(e.session);
    EXPECT_GT(e.frame, last_seen[w]);
    last_seen[w] = e.frame;
    ++count[w];
  }
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(last_seen[w], kEmitsPerWriter - 1);
    EXPECT_LE(count[w], 128);
    EXPECT_GT(count[w], 0);
  }
}

TEST(TraceChromeExport, RoundTripsThroughParser) {
  TraceCollector tc(64);
  tc.set_enabled(true);
  tc.async_begin("frame", 1, 2);
  {
    TraceSpan span(&tc, "stage:pre", 1, 2);
    span.set_args("\"batch\":3");
  }
  tc.instant("quarantine", 1, -1);
  tc.async_end("frame", 1, 2, "\"outcome\":\"delivered\"");
  const auto events = tc.snapshot();

  const std::string json = to_chrome_trace(events);
  const auto parsed = parse_chrome_trace(json);
  ASSERT_EQ(parsed.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].phase, events[i].phase) << i;
    EXPECT_EQ(parsed[i].name_view(), events[i].name_view()) << i;
    EXPECT_EQ(parsed[i].session, events[i].session) << i;
    EXPECT_EQ(parsed[i].frame, events[i].frame) << i;
    EXPECT_EQ(parsed[i].tid, events[i].tid) << i;
    EXPECT_NEAR(parsed[i].ts_ms, events[i].ts_ms, 1e-5) << i;
    EXPECT_NEAR(parsed[i].dur_ms, events[i].dur_ms, 1e-5) << i;
  }
  const auto& span = parsed[1].name_view() == "stage:pre" ? parsed[1]
                                                          : parsed[0];
  EXPECT_EQ(trace_arg_int(span, "batch"), 3);
  const auto& end = parsed.back();
  EXPECT_EQ(trace_arg_str(end, "outcome"), "delivered");

  EXPECT_THROW(parse_chrome_trace("{\"traceEvents\":["), Error);
  EXPECT_THROW(parse_chrome_trace("not json"), Error);
}

TEST(TraceContext, NestedSpansInheritTheInstalledFrame) {
  TraceCollector tc(64);
  tc.set_enabled(true);
  {
    ScopedTraceContext ctx(4, 9);
    TraceSpan span(&tc, "net.layer.0.conv", current_trace_context());
  }
  const auto events = tc.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].session, 4);
  EXPECT_EQ(events[0].frame, 9);
  // Context restored on scope exit.
  EXPECT_EQ(current_trace_context().session, -1);
  EXPECT_EQ(current_trace_context().frame, -1);
}

// --- Windowed metrics (scripted clock) ---

TEST(WindowedHistogram, OldSlicesDecayOutOfTheWindow) {
  WindowedHistogram h({std::chrono::milliseconds(1000), 10});
  // Keep all scripted instants safely after the construction epoch.
  const auto base = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(50);
  h.record_at(10.0, base);
  h.record_at(30.0, base + std::chrono::milliseconds(500));

  auto s = h.stats_at(base + std::chrono::milliseconds(500));
  EXPECT_EQ(s.count, 2);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.max, 30.0);
  EXPECT_DOUBLE_EQ(s.last, 30.0);

  // 1.1 s after the first sample it is outside the 1 s window; the
  // second survives.
  s = h.stats_at(base + std::chrono::milliseconds(1150));
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.min, 30.0);
  EXPECT_DOUBLE_EQ(s.sum, 30.0);

  // Far in the future everything has decayed.
  s = h.stats_at(base + std::chrono::milliseconds(5000));
  EXPECT_EQ(s.count, 0);
}

TEST(WindowedHistogram, SliceReuseClearsStaleContent) {
  WindowedHistogram h({std::chrono::milliseconds(1000), 10});
  const auto base = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(50);
  h.record_at(100.0, base);
  // Land in the same ring slot exactly one window later: the slice must
  // restart, not accumulate into the stale epoch.
  h.record_at(7.0, base + std::chrono::milliseconds(1000));
  const auto s = h.stats_at(base + std::chrono::milliseconds(1000));
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(WindowedHistogram, QuantilesComeFromLiveSlicesOnly) {
  WindowedHistogram h({std::chrono::milliseconds(1000), 10});
  const auto base = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(50);
  for (int i = 0; i < 100; ++i) h.record_at(1.0, base);
  for (int i = 0; i < 100; ++i)
    h.record_at(100.0, base + std::chrono::milliseconds(600));
  // Both populations live: the median sits between the clusters.
  auto s = h.stats_at(base + std::chrono::milliseconds(600));
  EXPECT_EQ(s.count, 200);
  // After the early cluster decays only the late one remains.
  s = h.stats_at(base + std::chrono::milliseconds(1300));
  EXPECT_EQ(s.count, 100);
  EXPECT_GT(s.p50, 50.0);
}

TEST(WindowedRate, TracksOnlyTheRecentWindow) {
  WindowedRate r({std::chrono::milliseconds(1000), 10});
  const auto base = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(50);
  EXPECT_DOUBLE_EQ(r.per_second_at(base), 0.0);
  for (int i = 0; i < 10; ++i) r.add_at(1, base);
  // All 10 events landed in one 100 ms slice.
  EXPECT_DOUBLE_EQ(r.per_second_at(base), 100.0);
  // Nine hundred ms later the window spans 1 s: 10 events/s.
  EXPECT_NEAR(r.per_second_at(base + std::chrono::milliseconds(900)), 10.0,
              1e-9);
  // Once the slice leaves the window the rate is zero again.
  EXPECT_DOUBLE_EQ(r.per_second_at(base + std::chrono::milliseconds(1500)),
                   0.0);
}

TEST(MetricsRegistry, WindowedMetricsAppearInSnapshots) {
  MetricsRegistry registry;
  auto& h = registry.windowed_histogram("lat.window");
  auto& r = registry.windowed_rate("fps.window");
  h.record(5.0);
  r.add(3);
  const auto snap = registry.snapshot();
  const auto* hs = snap.find_histogram("lat.window");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->stats.count, 1);
  ASSERT_NE(snap.find_gauge("fps.window"), nullptr);
  EXPECT_GT(snap.gauge_value("fps.window"), 0.0);
  // The export schema needs no extension for them.
  const auto reparsed = parse_snapshot(to_json(snap));
  ASSERT_NE(reparsed.find_histogram("lat.window"), nullptr);
  registry.reset("lat.");
  EXPECT_EQ(registry.snapshot().find_histogram("lat.window")->stats.count, 0);
}

// --- StreamServer integration: sanitization, queue depth, flight dumps ---

TEST(ServerObservability, SessionNamesAreSanitizedForMetrics) {
  telemetry::MetricsRegistry registry;
  serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.metrics = &registry;
  serve::StreamServer server(opts);
  serve::SessionConfig sc;
  sc.name = "cam 1/\"front\"\\door";
  sc.stages = {{"s", [](video::Frame&) {}, false}};
  sc.deliver = [](video::Frame&&) {};
  const int64_t id = server.open_session(std::move(sc));
  server.start();
  ASSERT_EQ(server.submit(id, video::Frame{}), serve::ServeResult::kAccepted);
  server.drain();
  server.stop();

  const auto snap = registry.snapshot();
  const std::string base = "serve.session.cam_1__front__door.";
  EXPECT_EQ(snap.counter_value(base + "frames"), 1);
  ASSERT_NE(snap.find_gauge(base + "queue_depth"), nullptr);
  ASSERT_NE(snap.find_histogram(base + "latency_ms.window"), nullptr);
  ASSERT_NE(snap.find_gauge(base + "fps.window"), nullptr);
  // The sanitized label keeps the exported document parseable.
  const auto reparsed = parse_snapshot(to_json(snap));
  EXPECT_EQ(reparsed.counter_value(base + "frames"), 1);

  // Unboundedly long names are rejected outright.
  serve::SessionConfig too_long;
  too_long.name = std::string(101, 'x');
  too_long.stages = {{"s", [](video::Frame&) {}, false}};
  too_long.deliver = [](video::Frame&&) {};
  EXPECT_THROW(server.open_session(std::move(too_long)), Error);
}

TEST(ServerObservability, QueueDepthGaugeReflectsAdmissionDwell) {
  telemetry::MetricsRegistry registry;
  serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.metrics = &registry;
  serve::StreamServer server(opts);
  serve::SessionConfig sc;
  sc.queue_capacity = 8;
  sc.stages = {{"slow",
                [](video::Frame&) {
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
                },
                false}};
  sc.deliver = [](video::Frame&&) {};
  const int64_t id = server.open_session(std::move(sc));
  server.start();
  for (int64_t i = 0; i < 8; ++i) {
    video::Frame f;
    f.sequence = i;
    ASSERT_EQ(server.submit(id, std::move(f)), serve::ServeResult::kAccepted);
  }
  server.drain();
  server.stop();
  // Frames queued behind a 2 ms stage accumulated real dwell, so the
  // Little's-law mean depth is strictly positive.
  const auto snap = registry.snapshot();
  const auto* g = snap.find_gauge("serve.session.s0.queue_depth");
  ASSERT_NE(g, nullptr);
  EXPECT_GT(g->value, 0.0);
}

TEST(ServerObservability, PoisonedGangLeavesFlightDumpsForEveryMember) {
  const std::string dir =
      testing::TempDir() + "tincy_flight_" +
      std::to_string(std::chrono::steady_clock::now().time_since_epoch()
                         .count());
  TraceCollector collector(1024);
  collector.set_enabled(true);

  telemetry::MetricsRegistry registry;
  serve::ServerOptions opts;
  opts.num_workers = 4;
  opts.metrics = &registry;
  opts.trace = &collector;
  opts.flight_recorder_dir = dir;
  opts.flight_recorder_events = 64;
  opts.arbiter = {.max_batch = 2, .batch_linger_us = 20000};
  serve::StreamServer server(opts);
  for (int i = 0; i < 2; ++i) {
    serve::SessionConfig sc;
    serve::ServeStage stage;
    stage.name = "engine";
    stage.uses_engine = true;
    stage.engine_layer = 0;
    stage.batch_work = [](std::span<video::Frame* const> gang) {
      if (gang.size() > 1) throw std::runtime_error("gang fault");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    };
    sc.stages.push_back(std::move(stage));
    sc.deliver = [](video::Frame&&) {};
    sc.queue_capacity = 8;
    server.open_session(std::move(sc));
  }
  server.start();
  // The linger holds a lone engine claim open for its peer, so a gang —
  // and with it the poisoned pass — forms within a few rounds.
  for (int round = 0; round < 200 && !server.quarantined(0); ++round) {
    int64_t seq = round * 2;
    for (int s = 0; s < 2; ++s) {
      video::Frame a, b;
      a.sequence = seq;
      b.sequence = seq + 1;
      if (!server.quarantined(s)) {
        server.submit(s, std::move(a));
        server.submit(s, std::move(b));
      }
    }
    server.drain();
  }
  server.stop();
  ASSERT_TRUE(server.quarantined(0));
  ASSERT_TRUE(server.quarantined(1));

  // Every gang member must have produced its own post-mortem, naming the
  // session and the fault, holding only that session's events, and
  // including its seat in the fatal gang.
  for (int s = 0; s < 2; ++s) {
    const std::string path = dir + "/flight_s" + std::to_string(s) + ".json";
    std::ifstream file(path);
    ASSERT_TRUE(file.good()) << path;
    std::ostringstream buf;
    buf << file.rdbuf();
    const std::string body = buf.str();
    EXPECT_NE(body.find("\"schema\":\"tincy.flight.v1\""), std::string::npos);
    EXPECT_NE(body.find("\"sessionName\":\"s" + std::to_string(s) + "\""),
              std::string::npos);
    EXPECT_NE(body.find("\"fault\":\"gang fault\""), std::string::npos);
    const auto events = parse_chrome_trace(body);
    ASSERT_FALSE(events.empty());
    bool saw_gang = false, saw_quarantine = false;
    for (const auto& e : events) {
      EXPECT_EQ(e.session, s);
      if (e.name_view() == "gang") saw_gang = true;
      if (e.name_view() == "quarantine") saw_quarantine = true;
    }
    EXPECT_TRUE(saw_gang);
    EXPECT_TRUE(saw_quarantine);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace tincy::telemetry
