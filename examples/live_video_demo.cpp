// The paper's end product, reproduced: live object detection on a video
// stream through the pipelined demo mode (Fig. 5). A synthetic camera
// plays the video source, an order-checking sink plays the X11 output.
// Prints the host-relative throughput of the threaded pipeline and the
// modeled throughput on the 4-core ZU3EG (the paper's 16 fps).
//
// Usage: live_video_demo [frames] [workers]

#include <cstdio>
#include <cstdlib>

#include "core/rng.hpp"
#include "nn/zoo.hpp"
#include "perf/ladder.hpp"
#include "pipeline/demo.hpp"
#include "video/draw.hpp"
#include "video/ppm.hpp"

using namespace tincy;

int main(int argc, char** argv) {
  const int64_t frames = argc > 1 ? std::atoll(argv[1]) : 64;
  const int workers = argc > 2 ? std::atoi(argv[2]) : 4;

  auto net = nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kFloat, 64,
      nn::zoo::CpuProfile::kFused));
  Rng rng(3);
  nn::zoo::randomize(*net, rng);

  video::SyntheticCamera camera(
      {.width = 128, .height = 96, .num_objects = 2, .seed = 11});
  video::OrderCheckingSink sink;

  pipeline::DemoConfig cfg;
  cfg.num_workers = workers;
  std::printf("running %lld frames through the demo pipeline (%d workers)...\n",
              static_cast<long long>(frames), workers);
  const auto snap = pipeline::run_demo(camera, *net, sink, frames, cfg);

  std::printf("done: %.1f fps on this host, frame order %s\n",
              snap.gauge_value("serve.session.pipeline.fps"),
              sink.in_order() ? "preserved" : "VIOLATED");

  // Save one annotated frame so the output is inspectable.
  video::Frame frame = camera.read_frame();
  video::write_ppm("live_demo_frame.ppm", frame.image);
  std::printf("wrote live_demo_frame.ppm (%lldx%lld)\n",
              static_cast<long long>(frame.image.shape().width()),
              static_cast<long long>(frame.image.shape().height()));

  // The modeled embedded platform.
  const perf::ZynqPlatform platform;
  const auto ladder = perf::optimization_ladder(platform);
  std::printf("modeled ZU3EG (Tincy YOLO, all optimizations): %.1f fps "
              "(paper: 16 fps)\n",
              ladder.back().fps);
  return sink.in_order() ? 0 : 1;
}
