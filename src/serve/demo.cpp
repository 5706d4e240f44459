#include "serve/demo.hpp"

#include "nn/offload_layer.hpp"

namespace tincy::serve {

std::vector<ServeStage> demo_session_stages(nn::Network& net,
                                            const pipeline::DemoConfig& cfg,
                                            EnginePolicy policy) {
  auto stages = pipeline::make_demo_stages(net, cfg);
  // Stage layout (see pipeline/demo.hpp): #0 read_frame, #1 letterbox,
  // #2 .. #2+L-1 the network layers, then object boxing and drawing.
  const int64_t num_layers = net.num_layers();
  for (int64_t layer = 0; layer < num_layers; ++layer) {
    bool engine = false;
    switch (policy) {
      case EnginePolicy::kNone:
        break;
      case EnginePolicy::kOffloadLayers:
        engine = dynamic_cast<nn::OffloadLayer*>(&net.layer(layer)) != nullptr;
        break;
      case EnginePolicy::kHiddenLayers:
        // First conv (layer 0), last conv (L-2) and region (L-1) stay on
        // the CPU, as in the paper's deployment.
        engine = layer >= 1 && layer <= num_layers - 3;
        break;
    }
    stages[static_cast<size_t>(layer) + 2].uses_engine = engine;
  }
  return stages;
}

}  // namespace tincy::serve
