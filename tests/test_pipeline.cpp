#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>

#include "pipeline/demo.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/virtual_time.hpp"

namespace tincy::pipeline {
namespace {

video::Frame make_frame(int64_t seq) {
  video::Frame f;
  f.sequence = seq;
  return f;
}

using Stages = std::vector<serve::ServeStage>;

/// Options for a pipeline whose source numbers frames 0, 1, 2, ...
PipelineOptions counting(Stages stages, std::atomic<int64_t>& next,
                         std::function<void(const video::Frame&)> sink,
                         int workers) {
  PipelineOptions po;
  po.stages = std::move(stages);
  po.source = [&next] { return make_frame(next++); };
  po.sink = std::move(sink);
  po.num_workers = workers;
  return po;
}

/// Stats of the pipeline session's histogram `name`.
telemetry::HistogramStats histogram(const Pipeline& p,
                                    const std::string& name) {
  const auto snap = p.snapshot();
  const auto* h = snap.find_histogram("serve.session.pipeline." + name);
  TINCY_CHECK_MSG(h != nullptr, name);
  return h->stats;
}

double fps(const Pipeline& p) {
  return p.snapshot().gauge_value("serve.session.pipeline.fps");
}

class ThreadedPipeline : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedPipeline, PreservesFrameOrder) {
  const int workers = GetParam();
  std::atomic<int64_t> next{0};
  video::OrderCheckingSink sink;
  Stages stages;
  for (int s = 0; s < 5; ++s)
    stages.push_back({"s" + std::to_string(s), [](video::Frame&) {}});

  Pipeline p(counting(
      stages, next, [&sink](const video::Frame& f) { sink.push(f); },
      workers));
  p.run(100);
  EXPECT_EQ(sink.frames_received(), 100);
  EXPECT_TRUE(sink.in_order());
  const auto seqs = sink.sequences();
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(seqs[static_cast<size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThreadedPipeline,
                         ::testing::Values(1, 2, 4, 8));

TEST(Pipeline, StagesTransformFramesInOrder) {
  // Each stage appends its id into the frame's features tensor slot;
  // the sink must observe all stages applied exactly once, in order.
  std::atomic<int64_t> next{0};
  Stages stages;
  for (int s = 0; s < 4; ++s) {
    stages.push_back({"s" + std::to_string(s), [s](video::Frame& f) {
                        Tensor t(Shape{f.features.numel() + 1});
                        for (int64_t i = 0; i < f.features.numel(); ++i)
                          t[i] = f.features[i];
                        t[f.features.numel()] = static_cast<float>(s);
                        f.features = std::move(t);
                      }});
  }
  std::vector<std::vector<float>> seen;
  std::mutex m;
  Pipeline p(counting(
      stages, next,
      [&](const video::Frame& f) {
        std::lock_guard lock(m);
        seen.emplace_back(f.features.data(),
                          f.features.data() + f.features.numel());
      },
      3));
  p.run(20);
  ASSERT_EQ(seen.size(), 20u);
  for (const auto& trace : seen) {
    ASSERT_EQ(trace.size(), 4u);
    for (int s = 0; s < 4; ++s) EXPECT_EQ(trace[static_cast<size_t>(s)], s);
  }
}

TEST(Pipeline, LatencyTracked) {
  std::atomic<int64_t> next{0};
  Stages stages;
  for (int s = 0; s < 3; ++s) {
    stages.push_back({"s" + std::to_string(s), [](video::Frame&) {
                        const auto end = std::chrono::steady_clock::now() +
                                         std::chrono::milliseconds(2);
                        while (std::chrono::steady_clock::now() < end) {
                        }
                      }});
  }
  Pipeline p(counting(stages, next, [](const video::Frame&) {}, 2));
  p.run(10);
  // Three 2 ms stages: latency at least ~6 ms, mean <= max.
  const auto latency = histogram(p, "latency_ms");
  EXPECT_EQ(latency.count, 10);
  EXPECT_GE(latency.mean(), 5.0);
  EXPECT_GE(latency.max, latency.mean());
}

TEST(Pipeline, StatsAccumulate) {
  std::atomic<int64_t> next{0};
  Pipeline p(counting({{"only", [](video::Frame&) {}}}, next,
                      [](const video::Frame&) {}, 2));
  p.run(10);
  EXPECT_EQ(histogram(p, "stage.only.busy_ms").count, 10);
  EXPECT_GT(fps(p), 0.0);
}

TEST(Pipeline, StopMidStreamIsCleanAndRepeatable) {
  // Regression for the shutdown race: stop() issued while workers hold
  // frames mid-stage must neither deadlock nor tear down stage state
  // under a worker still writing into it. 100 iterations with a swept
  // stop delay to land the stop at different points of the frame walk.
  for (int iter = 0; iter < 100; ++iter) {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> sunk{0};
    video::OrderCheckingSink sink;
    Stages stages;
    for (int s = 0; s < 4; ++s)
      stages.push_back({"s" + std::to_string(s), [](video::Frame&) {
                          std::this_thread::sleep_for(
                              std::chrono::microseconds(50));
                        }});
    Pipeline p(counting(
        stages, next,
        [&](const video::Frame& f) {
          sink.push(f);
          ++sunk;
        },
        3));
    p.start(1000);  // far more frames than can finish before the stop
    std::this_thread::sleep_for(std::chrono::microseconds(100 + 37 * iter));
    p.stop();
    p.wait();
    // Whatever was sunk before the stop is an in-order prefix 0..k-1.
    EXPECT_TRUE(sink.in_order()) << "iteration " << iter;
    const auto seqs = sink.sequences();
    for (size_t i = 0; i < seqs.size(); ++i)
      EXPECT_EQ(seqs[i], static_cast<int64_t>(i)) << "iteration " << iter;
    EXPECT_EQ(sunk.load(), static_cast<int64_t>(seqs.size()));
    // ~Pipeline re-runs stop()+wait() here; both must be idempotent.
  }
}

TEST(Pipeline, DestructorStopsRunningPipeline) {
  // Destroying a started-but-unfinished pipeline must join all workers
  // and leave no thread touching freed stage slots (primary TSan target
  // together with the loop above).
  for (int iter = 0; iter < 20; ++iter) {
    std::atomic<int64_t> next{0};
    Pipeline p(counting({{"a",
                          [](video::Frame&) {
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(80));
                          }},
                         {"b",
                          [](video::Frame&) {
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(80));
                          }}},
                        next, [](const video::Frame&) {}, 2));
    p.start(500);
    std::this_thread::sleep_for(std::chrono::microseconds(60 * iter));
    // ~Pipeline runs here: stop() + wait().
  }
}

TEST(Pipeline, StopFromStageCallbackDeliversAnInOrderPrefix) {
  // stop() from inside a stage must not wait on the worker running it;
  // the frames already pulled still reach the sink, in order.
  std::atomic<int64_t> next{0};
  video::OrderCheckingSink sink;
  Pipeline* self = nullptr;
  Pipeline p(counting({{"a", [](video::Frame&) {}},
                       {"b",
                        [&self](video::Frame& f) {
                          if (f.sequence == 5) self->stop();
                        }}},
                      next, [&sink](const video::Frame& f) { sink.push(f); },
                      2));
  self = &p;
  p.run(1000);
  EXPECT_TRUE(sink.in_order());
  EXPECT_GE(sink.frames_received(), 6);
  EXPECT_LT(sink.frames_received(), 1000);
  EXPECT_EQ(sink.frames_received(), next.load());
}

TEST(Pipeline, TracesUnderSessionMinusOne) {
  telemetry::TraceCollector trace;
  trace.set_enabled(true);
  std::atomic<int64_t> next{0};
  PipelineOptions po = counting({{"a", [](video::Frame&) {}},
                                 {"b", [](video::Frame&) {}}},
                                next, [](const video::Frame&) {}, 2);
  po.trace = &trace;
  Pipeline p(std::move(po));
  p.run(8);
  int64_t stage_spans = 0, frame_begins = 0, frame_ends = 0;
  for (const auto& e : trace.snapshot()) {
    EXPECT_EQ(e.session, -1) << e.name_view();
    if (e.name_view().rfind("stage:", 0) == 0) ++stage_spans;
    if (e.name_view() != "frame") continue;
    frame_begins += e.phase == telemetry::TracePhase::kAsyncBegin;
    frame_ends += e.phase == telemetry::TracePhase::kAsyncEnd;
  }
  EXPECT_EQ(stage_spans, 16);
  EXPECT_EQ(frame_begins, 8);
  EXPECT_EQ(frame_ends, 8);
}

TEST(Pipeline, RejectsInvalidConfig) {
  std::atomic<int64_t> next{0};
  const Stages stages{{"s", [](video::Frame&) {}}};
  PipelineOptions no_source =
      counting(stages, next, [](const video::Frame&) {}, 1);
  no_source.source = nullptr;
  EXPECT_THROW(Pipeline{std::move(no_source)}, Error);
  EXPECT_THROW(Pipeline(counting({}, next, [](const video::Frame&) {}, 1)),
               Error);
  EXPECT_THROW(Pipeline(counting(stages, next, [](const video::Frame&) {}, 0)),
               Error);
  Pipeline ok(counting(stages, next, [](const video::Frame&) {}, 1));
  EXPECT_THROW(ok.run(0), Error);
}

// --- Virtual-time executor ---

TEST(VirtualTime, SingleCoreIsSequentialThroughput) {
  const std::vector<TimedStage> stages{{"a", 10.0, ""}, {"b", 20.0, ""}};
  const auto r = simulate(stages, /*num_cores=*/1, /*num_frames=*/50);
  // One core: throughput = 1000 / Σ durations.
  EXPECT_NEAR(r.fps, 1000.0 / 30.0, 0.5);
  EXPECT_NEAR(sequential_fps(stages), 1000.0 / 30.0, 1e-9);
}

TEST(VirtualTime, PerfectPipelineBoundByBottleneck) {
  const std::vector<TimedStage> stages{
      {"a", 10.0, ""}, {"b", 40.0, ""}, {"c", 10.0, ""}};
  const auto r = simulate(stages, /*num_cores=*/3, /*num_frames=*/100);
  EXPECT_NEAR(r.fps, 1000.0 / 40.0, 0.5);  // the 40 ms stage gates
}

TEST(VirtualTime, CoreBoundWhenStagesExceedCores) {
  // 4 stages of 10 ms on 2 cores: work-bound at 2 cores × busy.
  const std::vector<TimedStage> stages{
      {"a", 10.0, ""}, {"b", 10.0, ""}, {"c", 10.0, ""}, {"d", 10.0, ""}};
  const auto r = simulate(stages, /*num_cores=*/2, /*num_frames=*/200);
  EXPECT_NEAR(r.fps, 1000.0 / 20.0, 1.0);
}

TEST(VirtualTime, ExclusiveResourceSerializes) {
  // Two 10 ms stages on the same exclusive resource cannot overlap even
  // with plenty of cores: throughput halves vs. the unconstrained case.
  const std::vector<TimedStage> free_stages{{"a", 10.0, ""}, {"b", 10.0, ""}};
  const std::vector<TimedStage> pl_stages{{"a", 10.0, "PL"},
                                          {"b", 10.0, "PL"}};
  const auto free_r = simulate(free_stages, 4, 100);
  const auto pl_r = simulate(pl_stages, 4, 100);
  EXPECT_NEAR(free_r.fps, 100.0, 1.0);
  EXPECT_NEAR(pl_r.fps, 50.0, 1.0);
}

TEST(VirtualTime, NoFrameOvertakesAnother) {
  const std::vector<TimedStage> stages{
      {"a", 7.0, ""}, {"b", 13.0, ""}, {"c", 5.0, ""}, {"d", 11.0, ""}};
  const auto r = simulate(stages, 4, 60);
  ASSERT_EQ(r.completion_order.size(), 60u);
  for (int64_t i = 0; i < 60; ++i)
    EXPECT_EQ(r.completion_order[static_cast<size_t>(i)], i);
}

TEST(VirtualTime, UtilizationBounded) {
  const std::vector<TimedStage> stages{{"a", 10.0, ""}, {"b", 10.0, ""}};
  const auto r = simulate(stages, 2, 100);
  EXPECT_GT(r.utilization(), 0.5);
  EXPECT_LE(r.utilization(), 1.0 + 1e-9);
}

TEST(VirtualTime, LatencyAtLeastSumOfStageTimes) {
  const std::vector<TimedStage> stages{
      {"a", 5.0, ""}, {"b", 6.0, ""}, {"c", 7.0, ""}};
  const auto r = simulate(stages, 4, 20);
  EXPECT_GE(r.latency_ms, 18.0 - 1e-6);
}

TEST(VirtualTime, AgreesWithThreadedPipelineOnSleepStages) {
  // Cross-check the DES model against the real threaded scheduler: stages
  // that busy-sleep a fixed duration should achieve roughly the fps the
  // virtual-time model predicts (loose tolerance: host scheduling noise).
  const std::vector<double> durations_ms{4.0, 8.0, 5.0, 6.0};
  std::vector<TimedStage> timed;
  Stages stages;
  for (size_t i = 0; i < durations_ms.size(); ++i) {
    timed.push_back({"s" + std::to_string(i), durations_ms[i], ""});
    const auto us = static_cast<int64_t>(durations_ms[i] * 1000);
    stages.push_back({"s" + std::to_string(i), [us](video::Frame&) {
                        const auto end = std::chrono::steady_clock::now() +
                                         std::chrono::microseconds(us);
                        while (std::chrono::steady_clock::now() < end) {
                        }
                      }});
  }
  const int cores = 2;
  const auto predicted = simulate(timed, cores, 40);

  std::atomic<int64_t> next{0};
  Pipeline p(counting(stages, next, [](const video::Frame&) {}, cores));
  p.run(40);
  // The single-core host timeslices the two workers; allow generous slack
  // but require the same order of magnitude and the correct upper bound.
  EXPECT_GT(fps(p), predicted.fps * 0.3);
  EXPECT_LT(fps(p), predicted.fps * 1.3);
}

TEST(VirtualTime, FourfoldSpeedupDilutedBySerialization) {
  // The paper's §III-F setup in the abstract: six similarly complex
  // stages, four cores — the ideal 4x is reachable only when no stage
  // dominates, and the bottleneck stage caps it otherwise.
  const std::vector<TimedStage> stages{{"s0", 40.0, ""}, {"s1", 35.0, ""},
                                       {"s2", 30.0, ""}, {"s3", 30.0, ""},
                                       {"s4", 15.0, ""}, {"s5", 25.0, ""}};
  const double seq = sequential_fps(stages);
  const auto r = simulate(stages, 4, 100);
  EXPECT_GT(r.fps, 2.5 * seq);  // clearly pipelined
  // Steady-state fps excludes pipeline fill, so allow a hair over 4x.
  EXPECT_LE(r.fps, 4.0 * seq * 1.01);
  EXPECT_LE(r.fps, 1000.0 / 40.0 + 0.5);  // never beats the bottleneck
}

}  // namespace
}  // namespace tincy::pipeline
