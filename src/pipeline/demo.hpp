#pragma once

/// \file demo.hpp
/// Assembly of the paper's new demo mode (Fig. 5): a pipeline that is four
/// stages longer than the user-specified network —
///   #0 Read Frame, #1 Letter Boxing, #2..N+1 the network layers
///   (the forward pass "disintegrated" into per-layer jobs),
///   #N+2 Object Boxing, #N+3 Frame Drawing —
/// feeding an always-free sink.

#include <vector>

#include "nn/network.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "video/camera.hpp"
#include "video/sink.hpp"

namespace tincy::pipeline {

struct DemoConfig {
  int num_workers = 4;            ///< worker threads (paper: 4 × A53)
  float detect_threshold = 0.3f;  ///< objectness/score threshold
  float nms_iou = 0.45f;          ///< NMS overlap threshold
  /// Registry the pipeline reports into; null selects the process-wide
  /// default. The network keeps reporting into its own registry (set at
  /// construction) — pass the same one for a unified snapshot.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Trace sink handed to the pipeline (per-frame spans); null selects
  /// telemetry::TraceCollector::global().
  telemetry::TraceCollector* trace = nullptr;
};

/// Builds the Fig. 5 stage list around `net`. The network must end in a
/// region layer; each layer becomes one stage operating on per-frame
/// buffers so concurrent frames never share activation storage. Layer
/// stages run through Network::run_layer_into, so per-layer telemetry
/// (`net.layer.<i>.<type>.ms`) stays fresh in pipeline mode. No stage is
/// engine-tagged; serve::demo_session_stages marks those.
std::vector<serve::ServeStage> make_demo_stages(nn::Network& net,
                                                const DemoConfig& cfg);

/// Convenience: runs `num_frames` camera frames through the demo pipeline
/// into `sink`. Returns the registry's sample of the run:
/// `serve.session.pipeline.*` (frames, latency_ms, fps, per-stage
/// busy_ms/wait_ms), `net.layer.*.ms`, ...
telemetry::Snapshot run_demo(video::SyntheticCamera& camera,
                             nn::Network& net, video::OrderCheckingSink& sink,
                             int64_t num_frames, const DemoConfig& cfg = {});

}  // namespace tincy::pipeline
