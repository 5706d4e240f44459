#include "video/camera.hpp"

#include <algorithm>
#include <cmath>

#include "data/synthvoc.hpp"

namespace tincy::video {

SyntheticCamera::SyntheticCamera(CameraConfig cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  TINCY_CHECK(cfg.width >= 16 && cfg.height >= 16);
  TINCY_CHECK(cfg.num_objects >= 1 && cfg.num_classes >= 1);
  for (int i = 0; i < cfg.num_objects; ++i) {
    Object o;
    o.w = rng_.uniform(0.2f, 0.4f);
    o.h = rng_.uniform(0.2f, 0.4f);
    o.cx = rng_.uniform(o.w / 2, 1.0f - o.w / 2);
    o.cy = rng_.uniform(o.h / 2, 1.0f - o.h / 2);
    const float angle = rng_.uniform(0.0f, 6.2831853f);
    o.vx = cfg.speed * std::cos(angle);
    o.vy = cfg.speed * std::sin(angle);
    o.class_id = static_cast<int>(rng_.uniform_int(0, cfg.num_classes - 1));
    objects_.push_back(o);
  }
}

Frame SyntheticCamera::read_frame() {
  // Advance the scene: objects bounce off the image borders.
  for (Object& o : objects_) {
    o.cx += o.vx;
    o.cy += o.vy;
    if (o.cx - o.w / 2 < 0.0f || o.cx + o.w / 2 > 1.0f) {
      o.vx = -o.vx;
      o.cx = std::clamp(o.cx, o.w / 2, 1.0f - o.w / 2);
    }
    if (o.cy - o.h / 2 < 0.0f || o.cy + o.h / 2 > 1.0f) {
      o.vy = -o.vy;
      o.cy = std::clamp(o.cy, o.h / 2, 1.0f - o.h / 2);
    }
  }

  Frame f;
  f.sequence = next_sequence_++;
  f.image = Tensor(Shape{3, cfg_.height, cfg_.width});
  // Mild texture so the frame is not flat: 0.4 plus N(0, 0.03) per pixel,
  // the Gaussians drawn in bulk (on the shared pool for a full frame).
  const std::span<float> px = f.image.span();
  rng_.fill_normal(px, 0.0f, 0.03f);
  for (float& v : px) v = std::clamp(0.4f + v, 0.0f, 1.0f);
  for (const Object& o : objects_) {
    detect::GroundTruth gt;
    gt.box = {o.cx, o.cy, o.w, o.h};
    gt.class_id = o.class_id;
    data::render_object(f.image, gt);
    f.truth.push_back(gt);
  }
  return f;
}

}  // namespace tincy::video
