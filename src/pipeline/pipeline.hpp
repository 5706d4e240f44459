#pragma once

/// \file pipeline.hpp
/// The re-implemented demo mode of §III-F: a frame-processing pipeline
/// executed by a pool of worker threads.
///
/// Semantics reproduced from the paper:
///  * every stage owns a single-slot output buffer with a free/avail
///    handshake (Fig. 6);
///  * "a new job is selected for execution by finding the most mature one
///    whose output buffer is free and whose input buffer has data
///    pending";
///  * "the video source and sink are always available and free,
///    respectively";
///  * the scheme prevents one frame overtaking another, maintaining the
///    correct video sequence;
///  * one worker thread per available core, pinned to it (pinning is
///    best-effort on the host).
///
/// The scheduler is serve::StreamServer's: a Pipeline is one source-fed
/// session (named "pipeline") of a private server, so it reports the
/// serving metrics `serve.session.pipeline.*` (frames, latency_ms, fps,
/// stage.<name>.busy_ms / wait_ms; see docs/observability.md) and traces
/// under session id −1.

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "video/frame.hpp"

namespace tincy::pipeline {

/// Everything a Pipeline needs.
struct PipelineOptions {
  /// The stage chain, stage #0 first; engine tags are honoured (one
  /// session always wins the arbiter), except on stage #0.
  std::vector<serve::ServeStage> stages;
  /// Pulls the next raw frame (stage #0's input); invoked serially.
  std::function<video::Frame()> source;
  /// Consumes finished frames; serialized by the final stage order.
  std::function<void(const video::Frame&)> sink;
  int num_workers = 4;  ///< worker threads (paper: 4 × A53)
  /// Registry to report into; null selects the process-wide default.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Trace sink for per-frame spans (async "frame" source->sink,
  /// "stage:<name>" and "deliver" complete spans); null selects
  /// telemetry::TraceCollector::global(). Only emits while enabled.
  telemetry::TraceCollector* trace = nullptr;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options);

  /// Processes exactly `num_frames` frames end to end; blocks until the
  /// sink has consumed the last one, then joins the workers. Resets this
  /// pipeline's metrics first, so the registry reflects the last run.
  /// Equivalent to start(num_frames) + wait().
  void run(int64_t num_frames);

  /// Starts a run of `num_frames` frames and returns immediately.
  /// start/wait/run must be driven from one controller thread; stop() may
  /// be called from any thread (including a stage callback).
  void start(int64_t num_frames);

  /// Blocks until the run finishes (all frames sunk, or the frames in
  /// flight at a stop() sunk) and joins the workers.
  void wait();

  /// Requests an early stop: no further frame is pulled from the source;
  /// frames already in the pipeline run through to the sink. Idempotent,
  /// callable from any thread; wait() (or the destructor) still joins.
  void stop();

  /// Consistent sample of the metrics registry after the last run():
  /// `serve.session.pipeline.*` plus whatever the stages recorded (e.g.
  /// `net.layer.*` when the stages run network layers).
  telemetry::Snapshot snapshot() const { return server_.snapshot(); }

  /// The registry this pipeline reports into.
  telemetry::MetricsRegistry& metrics() const { return server_.metrics(); }

 private:
  serve::StreamServer server_;
  int64_t session_ = -1;
};

}  // namespace tincy::pipeline
