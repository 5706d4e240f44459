#include "data/synthvoc.hpp"

#include <algorithm>
#include <cmath>

#include "core/errors.hpp"

namespace tincy::data {
namespace {

struct Rgb {
  float r, g, b;
};

// 7-color palette; class = shape (3) × color index.
constexpr Rgb kPalette[] = {
    {0.9f, 0.15f, 0.15f},  // red
    {0.15f, 0.75f, 0.2f},  // green
    {0.2f, 0.3f, 0.95f},   // blue
    {0.95f, 0.85f, 0.1f},  // yellow
    {0.85f, 0.2f, 0.85f},  // magenta
    {0.1f, 0.85f, 0.85f},  // cyan
    {0.95f, 0.55f, 0.1f},  // orange
};
constexpr const char* kPaletteNames[] = {"red",     "green", "blue",  "yellow",
                                         "magenta", "cyan",  "orange"};
constexpr const char* kShapeNames[] = {"circle", "square", "triangle"};

/// Coverage test of shape `shape_id` centered at (cx, cy) with half-extent
/// (hw, hh), for pixel center (px, py); all in pixels.
bool covers(int shape_id, float cx, float cy, float hw, float hh, float px,
            float py) {
  const float dx = (px - cx) / hw, dy = (py - cy) / hh;
  switch (shape_id) {
    case 0:  // circle (ellipse in the box)
      return dx * dx + dy * dy <= 1.0f;
    case 1:  // square (the full box)
      return std::fabs(dx) <= 1.0f && std::fabs(dy) <= 1.0f;
    default:  // triangle: apex up, base at the bottom of the box
      if (dy < -1.0f || dy > 1.0f) return false;
      return std::fabs(dx) <= (dy + 1.0f) / 2.0f;
  }
}

}  // namespace

void render_object(Tensor& image, const detect::GroundTruth& obj) {
  TINCY_CHECK(image.shape().rank() == 3 && image.shape().channels() == 3);
  TINCY_CHECK_MSG(obj.class_id >= 0 && obj.class_id < 21,
                  "class " << obj.class_id);
  const int64_t H = image.shape().height(), W = image.shape().width();
  const int shape = obj.class_id % 3, color = obj.class_id / 3;
  const Rgb rgb = kPalette[color];
  const float fill[3] = {rgb.r, rgb.g, rgb.b};

  const float pcx = obj.box.x * static_cast<float>(W);
  const float pcy = obj.box.y * static_cast<float>(H);
  const float phw = obj.box.w * static_cast<float>(W) / 2;
  const float phh = obj.box.h * static_cast<float>(H) / 2;
  for (int64_t y = std::max<int64_t>(0, static_cast<int64_t>(pcy - phh));
       y <= std::min<int64_t>(H - 1, static_cast<int64_t>(pcy + phh)); ++y) {
    for (int64_t x = std::max<int64_t>(0, static_cast<int64_t>(pcx - phw));
         x <= std::min<int64_t>(W - 1, static_cast<int64_t>(pcx + phw)); ++x) {
      if (!covers(shape, pcx, pcy, phw, phh, static_cast<float>(x) + 0.5f,
                  static_cast<float>(y) + 0.5f))
        continue;
      for (int c = 0; c < 3; ++c) image.at(c, y, x) = fill[c];
    }
  }
}

SynthVoc::SynthVoc(SynthVocConfig cfg, uint64_t seed)
    : cfg_(cfg), seed_(seed) {
  TINCY_CHECK_MSG(cfg.num_classes >= 1 && cfg.num_classes <= 20,
                  "num_classes " << cfg.num_classes);
  TINCY_CHECK(cfg.image_size >= 16);
  TINCY_CHECK(cfg.max_objects >= 1);
}

std::string SynthVoc::class_name(int class_id) const {
  TINCY_CHECK_MSG(class_id >= 0 && class_id < cfg_.num_classes,
                  "class " << class_id);
  const int shape = class_id % 3, color = class_id / 3;
  return std::string(kPaletteNames[color]) + "-" + kShapeNames[shape];
}

SynthSample SynthVoc::sample(int64_t index) const {
  // Index-keyed seeding keeps samples independent of generation order.
  Rng rng(seed_ * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index) + 1);
  const int64_t S = cfg_.image_size;

  SynthSample out;
  out.image = Tensor(Shape{3, S, S});
  // Low-contrast noisy background.
  const float base = rng.uniform(0.25f, 0.55f);
  const std::span<float> px = out.image.span();
  rng.fill_normal(px, 0.0f, cfg_.background_noise);
  for (float& v : px) v = std::clamp(base + v, 0.0f, 1.0f);

  const int64_t count = rng.uniform_int(1, cfg_.max_objects);
  for (int64_t n = 0; n < count; ++n) {
    detect::GroundTruth gt;
    gt.class_id = static_cast<int>(rng.uniform_int(0, cfg_.num_classes - 1));
    // Extents and placement keeping the object fully inside the image.
    gt.box.w = rng.uniform(cfg_.min_extent, cfg_.max_extent);
    gt.box.h = rng.uniform(cfg_.min_extent, cfg_.max_extent);
    gt.box.x = rng.uniform(gt.box.w / 2, 1.0f - gt.box.w / 2);
    gt.box.y = rng.uniform(gt.box.h / 2, 1.0f - gt.box.h / 2);
    render_object(out.image, gt);
    out.objects.push_back(gt);
  }
  return out;
}

}  // namespace tincy::data
