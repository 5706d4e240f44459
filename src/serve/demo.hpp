#pragma once

/// \file demo.hpp
/// Bridges the Fig. 5 demo pipeline into the serving layer: builds a
/// session's ServeStage chain from a network with
/// pipeline::make_demo_stages and tags which stages contend for the
/// shared fabric engine. Built into tincy_pipeline, which sits above
/// tincy_serve. Every session gets its own network instance —
/// sessions share no activation storage, only the (arbitrated) engine.

#include <vector>

#include "nn/network.hpp"
#include "pipeline/demo.hpp"
#include "serve/server.hpp"

namespace tincy::serve {

/// Which stages of a session require the exclusive engine grant.
enum class EnginePolicy {
  kNone,           ///< pure-CPU session (float nets, tests)
  kOffloadLayers,  ///< stages wrapping an [offload] layer (Fig. 3/4 path)
  /// The paper's split: every hidden layer (all but the first conv, the
  /// last conv and the region layer) runs on the time-shared PL engine.
  kHiddenLayers,
};

/// Builds the demo stage list around `net` (read_frame, letterbox, one
/// stage per layer, object boxing, frame drawing) and marks engine stages
/// per `policy`. The network outlives the session; concurrent frames use
/// per-frame buffers exactly as in the single-stream demo.
std::vector<ServeStage> demo_session_stages(nn::Network& net,
                                            const pipeline::DemoConfig& cfg,
                                            EnginePolicy policy);

}  // namespace tincy::serve
