#include "pipeline/demo.hpp"

#include "core/errors.hpp"
#include "data/image.hpp"
#include "detect/decode.hpp"
#include "detect/nms.hpp"
#include "nn/region_layer.hpp"
#include "pipeline/pipeline.hpp"
#include "video/draw.hpp"

namespace tincy::pipeline {

std::vector<serve::ServeStage> make_demo_stages(nn::Network& net,
                                                const DemoConfig& cfg) {
  TINCY_CHECK_MSG(net.num_layers() >= 1, "empty network");
  auto* region =
      dynamic_cast<nn::RegionLayer*>(&net.layer(net.num_layers() - 1));
  TINCY_CHECK_MSG(region != nullptr,
                  "demo pipeline expects the network to end in [region]");
  const int64_t input_size = net.input_shape().height();
  TINCY_CHECK_MSG(net.input_shape().width() == input_size,
                  "demo expects a square network input");

  std::vector<serve::ServeStage> stages;

  // #0 Read Frame — the camera pull happens in the session's source hook;
  // this stage represents the capture/copy cost as its own job slot (the
  // paper split image acquisition into camera access and scaling).
  stages.push_back({"read_frame", [](video::Frame&) {}});

  // #1 Letter Boxing.
  stages.push_back({"letterbox", [input_size](video::Frame& f) {
                      f.boxed = data::letterbox(f.image, input_size);
                    }});

  // #2 .. N+1: one stage per network layer, on per-frame buffers. Routing
  // through run_layer_into (not Layer::forward directly) keeps per-layer
  // telemetry fresh in pipeline mode.
  for (int64_t i = 0; i < net.num_layers(); ++i) {
    const Shape out_shape = net.layer(i).output_shape();
    const bool first = i == 0;
    stages.push_back(
        {"L[" + std::to_string(i) + "] " + net.layer(i).type_name(),
         [&net, i, out_shape, first](video::Frame& f) {
           Tensor out(out_shape);
           net.run_layer_into(i, first ? f.boxed : f.features, out);
           f.features = std::move(out);
         }});
  }

  // #N+2 Object Boxing: decode + NMS, boxes mapped back to camera space.
  const nn::RegionConfig region_cfg = region->config();
  const float thresh = cfg.detect_threshold;
  const float nms_iou = cfg.nms_iou;
  stages.push_back(
      {"object_boxing",
       [region_cfg, thresh, nms_iou, input_size](video::Frame& f) {
         auto dets = detect::decode_region(f.features, region_cfg, thresh);
         dets = detect::nms(std::move(dets), nms_iou);
         const int64_t w = f.image.shape().width();
         const int64_t h = f.image.shape().height();
         for (auto& d : dets)
           data::unletterbox_box(d.box.x, d.box.y, d.box.w, d.box.h, w, h,
                                 input_size);
         f.detections = std::move(dets);
       }});

  // #N+3 Frame Drawing.
  stages.push_back({"frame_drawing", [](video::Frame& f) {
                      video::draw_detections(f.image, f.detections);
                    }});

  return stages;
}

telemetry::Snapshot run_demo(video::SyntheticCamera& camera,
                             nn::Network& net, video::OrderCheckingSink& sink,
                             int64_t num_frames, const DemoConfig& cfg) {
  PipelineOptions options;
  options.stages = make_demo_stages(net, cfg);
  options.source = [&camera] { return camera.read_frame(); };
  options.sink = [&sink](const video::Frame& f) { sink.push(f); };
  options.num_workers = cfg.num_workers;
  options.metrics = cfg.metrics;
  options.trace = cfg.trace;
  Pipeline pipeline(std::move(options));
  pipeline.run(num_frames);
  return pipeline.snapshot();
}

}  // namespace tincy::pipeline
