#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>

#include "core/rng.hpp"
#include "data/image.hpp"
#include "data/synthdigits.hpp"
#include "data/synthvoc.hpp"
#include "video/camera.hpp"
#include "video/draw.hpp"
#include "video/ppm.hpp"
#include "video/sink.hpp"

namespace tincy {
namespace {

TEST(SynthVoc, Deterministic) {
  const data::SynthVoc a({.image_size = 32}, 5);
  const data::SynthVoc b({.image_size = 32}, 5);
  const auto sa = a.sample(17);
  const auto sb = b.sample(17);
  EXPECT_EQ(sa.image, sb.image);
  ASSERT_EQ(sa.objects.size(), sb.objects.size());
  for (size_t i = 0; i < sa.objects.size(); ++i)
    EXPECT_EQ(sa.objects[i].class_id, sb.objects[i].class_id);
}

TEST(SynthVoc, DifferentIndicesDiffer) {
  const data::SynthVoc d({.image_size = 32}, 5);
  EXPECT_FALSE(d.sample(0).image == d.sample(1).image);
}

TEST(SynthVoc, GroundTruthInsideImage) {
  const data::SynthVoc d({.image_size = 48, .num_classes = 6}, 9);
  for (int64_t i = 0; i < 50; ++i) {
    const auto s = d.sample(i);
    EXPECT_GE(s.objects.size(), 1u);
    for (const auto& gt : s.objects) {
      EXPECT_GE(gt.box.left(), -1e-5f);
      EXPECT_LE(gt.box.right(), 1.0f + 1e-5f);
      EXPECT_GE(gt.box.top(), -1e-5f);
      EXPECT_LE(gt.box.bottom(), 1.0f + 1e-5f);
      EXPECT_GE(gt.class_id, 0);
      EXPECT_LT(gt.class_id, 6);
    }
  }
}

TEST(SynthVoc, PixelsInUnitRange) {
  const data::SynthVoc d({.image_size = 32}, 11);
  const auto s = d.sample(3);
  for (int64_t i = 0; i < s.image.numel(); ++i) {
    EXPECT_GE(s.image[i], 0.0f);
    EXPECT_LE(s.image[i], 1.0f);
  }
}

TEST(SynthVoc, ObjectActuallyRendered) {
  // The object's center pixel must carry its class color, not background.
  data::SynthVocConfig cfg;
  cfg.image_size = 64;
  cfg.background_noise = 0.0f;
  const data::SynthVoc d(cfg, 13);
  const auto s = d.sample(0);
  const auto& gt = s.objects.back();  // last object drawn on top
  const auto cx = static_cast<int64_t>(gt.box.x * 64.0f);
  const auto cy = static_cast<int64_t>(gt.box.y * 64.0f);
  // Center of circle/square/triangle is always covered.
  float mx = 0.0f;
  for (int c = 0; c < 3; ++c) mx = std::max(mx, s.image.at(c, cy, cx));
  EXPECT_GT(mx, 0.7f);  // palette colors have a dominant bright channel
}

TEST(SynthVoc, ClassNames) {
  const data::SynthVoc d({.image_size = 32, .num_classes = 6}, 1);
  EXPECT_EQ(d.class_name(0), "red-circle");
  EXPECT_EQ(d.class_name(1), "red-square");
  EXPECT_EQ(d.class_name(3), "green-circle");
  EXPECT_THROW(d.class_name(6), Error);
}

TEST(Image, ResizeBilinearIdentity) {
  Tensor img(Shape{3, 5, 7});
  for (int64_t i = 0; i < img.numel(); ++i) img[i] = static_cast<float>(i);
  const Tensor same = data::resize_bilinear(img, 5, 7);
  for (int64_t i = 0; i < img.numel(); ++i) EXPECT_NEAR(same[i], img[i], 1e-5f);
}

TEST(Image, ResizePreservesConstant) {
  Tensor img(Shape{3, 4, 4}, 0.7f);
  const Tensor up = data::resize_bilinear(img, 9, 13);
  for (int64_t i = 0; i < up.numel(); ++i) EXPECT_NEAR(up[i], 0.7f, 1e-5f);
}

TEST(Image, LetterboxWideImage) {
  Tensor img(Shape{3, 50, 100}, 1.0f);  // 2:1 wide
  const Tensor boxed = data::letterbox(img, 64);
  EXPECT_EQ(boxed.shape(), Shape({3, 64, 64}));
  // Top band is the 0.5 gray padding, middle rows are image content.
  EXPECT_FLOAT_EQ(boxed.at(0, 0, 32), 0.5f);
  EXPECT_FLOAT_EQ(boxed.at(0, 32, 32), 1.0f);
}

TEST(Image, LetterboxSquareNoPadding) {
  Tensor img(Shape{3, 40, 40}, 0.9f);
  const Tensor boxed = data::letterbox(img, 32);
  for (int64_t i = 0; i < boxed.numel(); ++i) EXPECT_NEAR(boxed[i], 0.9f, 1e-5f);
}

/// Bilinear sample of `img` at output (oy, ox) of an out_h × out_w
/// resize, one checked at() per tap: the per-pixel form the resize
/// kernel must reproduce bit for bit.
float naive_bilinear(const Tensor& img, int64_t c, int64_t oy, int64_t ox,
                     int64_t out_h, int64_t out_w) {
  const int64_t H = img.shape().height(), W = img.shape().width();
  const float sy = out_h > 1 ? static_cast<float>(H - 1) / static_cast<float>(out_h - 1) : 0.0f;
  const float sx = out_w > 1 ? static_cast<float>(W - 1) / static_cast<float>(out_w - 1) : 0.0f;
  const float fy = static_cast<float>(oy) * sy;
  const int64_t y0 = static_cast<int64_t>(fy);
  const int64_t y1 = std::min(y0 + 1, H - 1);
  const float wy = fy - static_cast<float>(y0);
  const float fx = static_cast<float>(ox) * sx;
  const int64_t x0 = static_cast<int64_t>(fx);
  const int64_t x1 = std::min(x0 + 1, W - 1);
  const float wx = fx - static_cast<float>(x0);
  return (1 - wy) * ((1 - wx) * img.at(c, y0, x0) + wx * img.at(c, y0, x1)) +
         wy * ((1 - wx) * img.at(c, y1, x0) + wx * img.at(c, y1, x1));
}

TEST(Image, ResizeAndLetterboxMatchNaiveBilinearBitwise) {
  Rng rng(5);
  // Wide, tall, square; down- and upscaling; odd extents; a 1-pixel side.
  const std::array<std::array<int64_t, 3>, 6> cases{{{37, 53, 29},
                                                     {53, 37, 29},
                                                     {48, 64, 416},
                                                     {480, 640, 416},
                                                     {9, 9, 9},
                                                     {1, 17, 8}}};
  for (const auto& [h, w, size] : cases) {
    Tensor img(Shape{3, h, w});
    for (int64_t i = 0; i < img.numel(); ++i) img[i] = rng.uniform(0.0f, 1.0f);
    const Tensor boxed = data::letterbox(img, size);
    const int64_t new_w = w >= h ? size : std::max<int64_t>(1, w * size / h);
    const int64_t new_h = w >= h ? std::max<int64_t>(1, h * size / w) : size;
    const int64_t off_y = (size - new_h) / 2, off_x = (size - new_w) / 2;
    const Tensor resized = data::resize_bilinear(img, new_h, new_w);
    int64_t mismatches = 0;
    for (int64_t c = 0; c < 3; ++c)
      for (int64_t y = 0; y < size; ++y)
        for (int64_t x = 0; x < size; ++x) {
          const bool inside = y >= off_y && y < off_y + new_h &&
                              x >= off_x && x < off_x + new_w;
          const float want =
              inside ? naive_bilinear(img, c, y - off_y, x - off_x, new_h, new_w)
                     : 0.5f;
          mismatches += boxed.at(c, y, x) != want;
          if (inside)
            mismatches += resized.at(c, y - off_y, x - off_x) != want;
        }
    EXPECT_EQ(mismatches, 0) << h << "x" << w << " -> " << size;
  }
}

TEST(Image, UnletterboxInvertsBoxMapping) {
  // A box at known original coords, letterboxed, must map back.
  const int64_t ow = 100, oh = 50, size = 64;
  // In the boxed frame, the image occupies the middle 32 rows.
  // Original box center (0.5, 0.5) maps to boxed (0.5, 0.5).
  float bx = 0.5f, by = 0.5f, bw = 0.2f, bh = 0.25f;
  data::unletterbox_box(bx, by, bw, bh, ow, oh, size);
  EXPECT_NEAR(bx, 0.5f, 1e-5f);
  EXPECT_NEAR(by, 0.5f, 1e-5f);
  EXPECT_NEAR(bw, 0.2f, 1e-5f);       // width axis unscaled (w >= h)
  EXPECT_NEAR(bh, 0.25f * 2.0f, 1e-5f);  // height axis stretched back
}

TEST(Camera, SequenceNumbersMonotone) {
  video::SyntheticCamera cam({.width = 32, .height = 32});
  for (int64_t i = 0; i < 10; ++i) {
    const video::Frame f = cam.read_frame();
    EXPECT_EQ(f.sequence, i);
    EXPECT_EQ(f.image.shape(), Shape({3, 32, 32}));
    EXPECT_FALSE(f.truth.empty());
  }
}

TEST(Camera, ObjectsStayInBounds) {
  video::SyntheticCamera cam(
      {.width = 48, .height = 32, .num_objects = 3, .speed = 0.05f});
  for (int i = 0; i < 200; ++i) {
    const video::Frame f = cam.read_frame();
    for (const auto& gt : f.truth) {
      EXPECT_GE(gt.box.left(), -1e-4f);
      EXPECT_LE(gt.box.right(), 1.0f + 1e-4f);
      EXPECT_GE(gt.box.top(), -1e-4f);
      EXPECT_LE(gt.box.bottom(), 1.0f + 1e-4f);
    }
  }
}

TEST(Camera, SceneActuallyMoves) {
  video::SyntheticCamera cam({.width = 32, .height = 32, .speed = 0.02f});
  const auto a = cam.read_frame();
  for (int i = 0; i < 10; ++i) cam.read_frame();
  const auto b = cam.read_frame();
  EXPECT_NE(a.truth[0].box.x + a.truth[0].box.y,
            b.truth[0].box.x + b.truth[0].box.y);
}

/// The camera's frames restated with one scalar normal() per pixel: the
/// constructor's scene draws replayed on a twin generator, then per frame
/// the texture loop as the camera ran it before bulk sampling, and the
/// camera's own objects rendered on top.
void expect_camera_matches_scalar_texture(int64_t width, int64_t height) {
  const video::CameraConfig cfg{.width = width, .height = height,
                                .num_objects = 3, .seed = 99};
  video::SyntheticCamera cam(cfg);
  Rng rng(cfg.seed);
  for (int i = 0; i < cfg.num_objects; ++i) {
    const float w = rng.uniform(0.2f, 0.4f), h = rng.uniform(0.2f, 0.4f);
    rng.uniform(w / 2, 1.0f - w / 2);
    rng.uniform(h / 2, 1.0f - h / 2);
    rng.uniform(0.0f, 6.2831853f);
    rng.uniform_int(0, cfg.num_classes - 1);
  }
  for (int frame = 0; frame < 3; ++frame) {
    const video::Frame f = cam.read_frame();
    Tensor want(Shape{3, height, width}, 0.4f);
    for (int64_t i = 0; i < want.numel(); ++i)
      want[i] = std::clamp(want[i] + rng.normal(0.0f, 0.03f), 0.0f, 1.0f);
    for (const auto& gt : f.truth) data::render_object(want, gt);
    ASSERT_EQ(f.image.shape(), want.shape());
    ASSERT_EQ(std::memcmp(f.image.data(), want.data(),
                          static_cast<size_t>(want.numel()) * sizeof(float)),
              0)
        << width << "x" << height << " frame " << frame;
  }
}

TEST(Camera, FullFrameTextureMatchesScalarLoopBitwise) {
  // 640×480: above the bulk sampler's floor, on the shared pool.
  expect_camera_matches_scalar_texture(640, 480);
}

TEST(Camera, OddFrameTextureMatchesScalarLoopBitwise) {
  // Odd element counts leave a cached normal that the next frame starts
  // with: 641×481 on the pooled path, 17×19 in the caller.
  expect_camera_matches_scalar_texture(641, 481);
  expect_camera_matches_scalar_texture(17, 19);
}

TEST(Draw, OutlinesBox) {
  Tensor img(Shape{3, 32, 32}, 0.0f);
  std::vector<detect::Detection> dets{
      {{0.5f, 0.5f, 0.5f, 0.5f}, 0, 0.9f, 1.0f}};
  video::draw_detections(img, dets, 1);
  // Class 0 color is red-ish: strong channel 0 on the outline.
  EXPECT_GT(img.at(0, 8, 16), 0.9f);   // top edge
  EXPECT_GT(img.at(0, 24, 16), 0.9f);  // bottom edge
  EXPECT_GT(img.at(0, 16, 8), 0.9f);   // left edge
  EXPECT_FLOAT_EQ(img.at(0, 16, 16), 0.0f);  // interior untouched
}

TEST(Draw, ClipsOutOfImageBoxes) {
  Tensor img(Shape{3, 16, 16}, 0.0f);
  std::vector<detect::Detection> dets{
      {{0.0f, 0.0f, 0.8f, 0.8f}, 1, 0.9f, 1.0f}};  // spills over the corner
  EXPECT_NO_THROW(video::draw_detections(img, dets));
}

TEST(Draw, MatchesNaivePerPixelReference) {
  // Boxes inside, clipped on every side, touching the image edges,
  // degenerate (zero width) and larger than the image, at thickness 1-4;
  // the row fill must write exactly the pixels a per-pixel fill writes.
  const int64_t H = 23, W = 31;
  const std::vector<detect::Detection> dets{
      {{0.5f, 0.5f, 0.4f, 0.3f}, 0, 0.9f, 1.0f},
      {{0.0f, 0.0f, 0.8f, 0.8f}, 1, 0.9f, 1.0f},
      {{1.0f, 1.0f, 0.5f, 0.7f}, 2, 0.9f, 1.0f},
      {{0.5f, 0.5f, 1.0f, 1.0f}, 3, 0.9f, 1.0f},
      {{0.5f, 0.5f, 1.6f, 0.2f}, 4, 0.9f, 1.0f},
      {{0.3f, 0.7f, 0.0f, 0.3f}, 13, 0.9f, 1.0f},
      {{0.9f, 0.1f, 0.05f, 0.05f}, -1, 0.9f, 1.0f},
  };
  const float colors[8][3] = {
      {1.0f, 0.2f, 0.2f}, {0.2f, 1.0f, 0.2f}, {0.3f, 0.4f, 1.0f},
      {1.0f, 1.0f, 0.2f}, {1.0f, 0.3f, 1.0f}, {0.2f, 1.0f, 1.0f},
      {1.0f, 0.6f, 0.2f}, {0.9f, 0.9f, 0.9f}};
  for (int t = 1; t <= 4; ++t) {
    Tensor want(Shape{3, H, W});
    for (int64_t i = 0; i < want.numel(); ++i)
      want[i] = static_cast<float>(i % 7) * 0.01f;
    Tensor got = want;
    video::draw_detections(got, dets, t);
    for (const auto& d : dets) {
      const float* rgb = colors[(d.class_id >= 0 ? d.class_id : 0) % 8];
      const auto x0 = static_cast<int64_t>(d.box.left() * static_cast<float>(W));
      const auto x1 = static_cast<int64_t>(d.box.right() * static_cast<float>(W));
      const auto y0 = static_cast<int64_t>(d.box.top() * static_cast<float>(H));
      const auto y1 = static_cast<int64_t>(d.box.bottom() * static_cast<float>(H));
      const auto fill = [&](int64_t ax, int64_t ay, int64_t bx, int64_t by) {
        ax = std::clamp<int64_t>(ax, 0, W - 1);
        bx = std::clamp<int64_t>(bx, 0, W - 1);
        ay = std::clamp<int64_t>(ay, 0, H - 1);
        by = std::clamp<int64_t>(by, 0, H - 1);
        for (int64_t y = ay; y <= by; ++y)
          for (int64_t x = ax; x <= bx; ++x)
            for (int64_t c = 0; c < 3; ++c) want.at(c, y, x) = rgb[c];
      };
      fill(x0, y0, x1, y0 + t - 1);
      fill(x0, y1 - t + 1, x1, y1);
      fill(x0, y0, x0 + t - 1, y1);
      fill(x1 - t + 1, y0, x1, y1);
    }
    int64_t mismatches = 0;
    for (int64_t i = 0; i < want.numel(); ++i) mismatches += got[i] != want[i];
    EXPECT_EQ(mismatches, 0) << "thickness " << t;
  }
}

TEST(Ppm, RoundTrip) {
  Tensor img(Shape{3, 5, 7});
  for (int64_t i = 0; i < img.numel(); ++i)
    img[i] = static_cast<float>(i % 256) / 255.0f;
  const auto path =
      (std::filesystem::temp_directory_path() / "tincy_test.ppm").string();
  video::write_ppm(path, img);
  const Tensor back = video::read_ppm(path);
  ASSERT_EQ(back.shape(), img.shape());
  for (int64_t i = 0; i < img.numel(); ++i)
    EXPECT_NEAR(back[i], img[i], 1.0f / 255.0f);
  std::filesystem::remove(path);
}

TEST(SynthDigits, Deterministic) {
  const data::SynthDigits a(5), b(5);
  const auto sa = a.sample(3), sb = b.sample(3);
  EXPECT_EQ(sa.label, sb.label);
  EXPECT_EQ(sa.image, sb.image);
}

TEST(SynthDigits, LabelsCoverAllDigits) {
  const data::SynthDigits d(7);
  std::array<bool, 10> seen{};
  for (int64_t i = 0; i < 200; ++i) {
    const auto s = d.sample(i);
    ASSERT_GE(s.label, 0);
    ASSERT_LE(s.label, 9);
    seen[static_cast<size_t>(s.label)] = true;
  }
  for (int digit = 0; digit < 10; ++digit) EXPECT_TRUE(seen[static_cast<size_t>(digit)]) << digit;
}

TEST(SynthDigits, GlyphActuallyBright) {
  // Foreground pixels must clearly separate from the background.
  const data::SynthDigits d(9);
  const auto s = d.sample(0);
  EXPECT_EQ(s.image.shape(), Shape({1, 28, 28}));
  float lo = 1.0f, hi = 0.0f;
  for (int64_t i = 0; i < s.image.numel(); ++i) {
    lo = std::min(lo, s.image[i]);
    hi = std::max(hi, s.image[i]);
  }
  EXPECT_LT(lo, 0.35f);
  EXPECT_GT(hi, 0.6f);
}

TEST(SynthDigits, DistinctDigitsRenderDifferently) {
  const data::SynthDigits d(11);
  // Find two samples with different labels and compare images.
  const auto a = d.sample(0);
  for (int64_t i = 1; i < 50; ++i) {
    const auto b = d.sample(i);
    if (b.label != a.label) {
      EXPECT_FALSE(a.image == b.image);
      return;
    }
  }
  FAIL() << "no differing labels in 50 samples";
}

TEST(Sink, OrderChecking) {
  video::OrderCheckingSink sink;
  video::Frame f;
  f.sequence = 0;
  sink.push(f);
  f.sequence = 1;
  sink.push(f);
  f.sequence = 2;
  sink.push(f);
  EXPECT_EQ(sink.frames_received(), 3);
  EXPECT_TRUE(sink.in_order());
  f.sequence = 1;  // overtaking frame
  sink.push(f);
  EXPECT_FALSE(sink.in_order());
}

}  // namespace
}  // namespace tincy
