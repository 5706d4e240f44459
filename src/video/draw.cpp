#include "video/draw.hpp"

#include <algorithm>

#include "core/errors.hpp"

namespace tincy::video {
namespace {

// 8 distinguishable outline colors, indexed by class id modulo 8.
constexpr float kColors[8][3] = {
    {1.0f, 0.2f, 0.2f}, {0.2f, 1.0f, 0.2f}, {0.3f, 0.4f, 1.0f},
    {1.0f, 1.0f, 0.2f}, {1.0f, 0.3f, 1.0f}, {0.2f, 1.0f, 1.0f},
    {1.0f, 0.6f, 0.2f}, {0.9f, 0.9f, 0.9f}};

void fill_rect(Tensor& image, int64_t x0, int64_t y0, int64_t x1, int64_t y1,
               const float* rgb) {
  const int64_t H = image.shape().height(), W = image.shape().width();
  x0 = std::clamp<int64_t>(x0, 0, W - 1);
  x1 = std::clamp<int64_t>(x1, 0, W - 1);
  y0 = std::clamp<int64_t>(y0, 0, H - 1);
  y1 = std::clamp<int64_t>(y1, 0, H - 1);
  if (x0 > x1 || y0 > y1) return;
  for (int64_t c = 0; c < 3; ++c) {
    float* plane = image.data() + c * H * W;
    for (int64_t y = y0; y <= y1; ++y)
      std::fill(plane + y * W + x0, plane + y * W + x1 + 1, rgb[c]);
  }
}

}  // namespace

void draw_detections(Tensor& image,
                     const std::vector<detect::Detection>& detections,
                     int thickness) {
  TINCY_CHECK(image.shape().rank() == 3 && image.shape().channels() == 3);
  TINCY_CHECK(thickness >= 1);
  const int64_t H = image.shape().height(), W = image.shape().width();
  const int64_t t = thickness;
  for (const auto& d : detections) {
    const float* rgb = kColors[(d.class_id >= 0 ? d.class_id : 0) % 8];
    const auto x0 = static_cast<int64_t>(d.box.left() * static_cast<float>(W));
    const auto x1 = static_cast<int64_t>(d.box.right() * static_cast<float>(W));
    const auto y0 = static_cast<int64_t>(d.box.top() * static_cast<float>(H));
    const auto y1 =
        static_cast<int64_t>(d.box.bottom() * static_cast<float>(H));
    fill_rect(image, x0, y0, x1, y0 + t - 1, rgb);      // top edge
    fill_rect(image, x0, y1 - t + 1, x1, y1, rgb);      // bottom edge
    fill_rect(image, x0, y0, x0 + t - 1, y1, rgb);      // left edge
    fill_rect(image, x1 - t + 1, y0, x1, y1, rgb);      // right edge
  }
}

}  // namespace tincy::video
