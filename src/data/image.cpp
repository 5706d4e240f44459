#include "data/image.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace tincy::data {

namespace {

/// Bilinear resize of `image` to out_h × out_w, written into rows
/// [off_y, off_y + out_h) and columns [off_x, off_x + out_w) of every
/// channel of `dst`. Row pointers replace per-pixel checked indexing, and
/// each output column's taps and weight are computed once per call.
void resize_bilinear_into(const Tensor& image, int64_t out_h, int64_t out_w,
                          Tensor& dst, int64_t off_y, int64_t off_x) {
  const int64_t C = image.shape().channels(), H = image.shape().height(),
                W = image.shape().width();
  const int64_t dst_h = dst.shape().height(), dst_w = dst.shape().width();
  const float sy = out_h > 1 ? static_cast<float>(H - 1) / static_cast<float>(out_h - 1)
                             : 0.0f;
  const float sx = out_w > 1 ? static_cast<float>(W - 1) / static_cast<float>(out_w - 1)
                             : 0.0f;
  struct ColumnTaps {
    int64_t x0, x1;
    float wx;
  };
  std::vector<ColumnTaps> cols(static_cast<size_t>(out_w));
  for (int64_t ox = 0; ox < out_w; ++ox) {
    const float fx = static_cast<float>(ox) * sx;
    const int64_t x0 = static_cast<int64_t>(fx);
    cols[static_cast<size_t>(ox)] = {x0, std::min(x0 + 1, W - 1),
                                     fx - static_cast<float>(x0)};
  }
  for (int64_t c = 0; c < C; ++c) {
    const float* plane = image.data() + c * H * W;
    float* out_plane = dst.data() + c * dst_h * dst_w;
    for (int64_t oy = 0; oy < out_h; ++oy) {
      const float fy = static_cast<float>(oy) * sy;
      const int64_t y0 = static_cast<int64_t>(fy);
      const int64_t y1 = std::min(y0 + 1, H - 1);
      const float wy = fy - static_cast<float>(y0);
      const float* r0 = plane + y0 * W;
      const float* r1 = plane + y1 * W;
      float* out = out_plane + (oy + off_y) * dst_w + off_x;
      for (int64_t ox = 0; ox < out_w; ++ox) {
        const ColumnTaps& t = cols[static_cast<size_t>(ox)];
        const float wx = t.wx;
        const float v00 = r0[t.x0], v01 = r0[t.x1];
        const float v10 = r1[t.x0], v11 = r1[t.x1];
        out[ox] = (1 - wy) * ((1 - wx) * v00 + wx * v01) +
                  wy * ((1 - wx) * v10 + wx * v11);
      }
    }
  }
}

}  // namespace

Tensor resize_bilinear(const Tensor& image, int64_t out_h, int64_t out_w) {
  TINCY_CHECK(image.shape().rank() == 3);
  TINCY_CHECK(out_h > 0 && out_w > 0);
  Tensor out(Shape{image.shape().channels(), out_h, out_w});
  resize_bilinear_into(image, out_h, out_w, out, 0, 0);
  return out;
}

Tensor letterbox(const Tensor& image, int64_t size) {
  TINCY_CHECK(image.shape().rank() == 3 && size > 0);
  const int64_t C = image.shape().channels(), H = image.shape().height(),
                W = image.shape().width();
  int64_t new_w, new_h;
  if (W >= H) {
    new_w = size;
    new_h = std::max<int64_t>(1, H * size / W);
  } else {
    new_h = size;
    new_w = std::max<int64_t>(1, W * size / H);
  }
  // Resize straight into the gray box, centered.
  Tensor boxed(Shape{C, size, size}, 0.5f);
  resize_bilinear_into(image, new_h, new_w, boxed, (size - new_h) / 2,
                       (size - new_w) / 2);
  return boxed;
}

void unletterbox_box(float& bx, float& by, float& bw, float& bh,
                     int64_t orig_w, int64_t orig_h, int64_t boxed_size) {
  int64_t new_w, new_h;
  if (orig_w >= orig_h) {
    new_w = boxed_size;
    new_h = std::max<int64_t>(1, orig_h * boxed_size / orig_w);
  } else {
    new_h = boxed_size;
    new_w = std::max<int64_t>(1, orig_w * boxed_size / orig_h);
  }
  const float fx = static_cast<float>(new_w) / static_cast<float>(boxed_size);
  const float fy = static_cast<float>(new_h) / static_cast<float>(boxed_size);
  const float off_x = (1.0f - fx) / 2.0f;
  const float off_y = (1.0f - fy) / 2.0f;
  bx = (bx - off_x) / fx;
  by = (by - off_y) / fy;
  bw = bw / fx;
  bh = bh / fy;
}

}  // namespace tincy::data
