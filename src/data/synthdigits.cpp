#include "data/synthdigits.hpp"

#include <algorithm>

namespace tincy::data {
namespace {

// Classic 5×7 digit font, one row per scanline, LSB = leftmost pixel.
constexpr uint8_t kFont[10][7] = {
    {0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110},  // 0
    {0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110},  // 1
    {0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111},  // 2
    {0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110},  // 3
    {0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010},  // 4
    {0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110},  // 5
    {0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110},  // 6
    {0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000},  // 7
    {0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110},  // 8
    {0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100},  // 9
};

bool font_bit(int digit, float gx, float gy) {
  const int col = static_cast<int>(gx);
  const int row = static_cast<int>(gy);
  if (col < 0 || col >= 5 || row < 0 || row >= 7) return false;
  // MSB of the 5-bit row is the leftmost pixel.
  return (kFont[digit][row] >> (4 - col)) & 1;
}

}  // namespace

DigitSample SynthDigits::sample(int64_t index) const {
  Rng rng(seed_ * 0xD1910F0A7ull + static_cast<uint64_t>(index) + 1);
  DigitSample s;
  s.label = static_cast<int>(rng.uniform_int(0, 9));
  s.image = Tensor(Shape{1, kSize, kSize});

  const float background = rng.uniform(0.05f, 0.15f);
  const float foreground = rng.uniform(0.8f, 1.0f);
  const float noise = 0.05f;

  // Glyph placement: scale ~3x (glyph ≈ 15×21 px), jittered offset.
  const float scale = rng.uniform(2.4f, 3.2f);
  const float glyph_w = 5.0f * scale, glyph_h = 7.0f * scale;
  const float off_x = rng.uniform(1.0f, static_cast<float>(kSize) - glyph_w - 1.0f);
  const float off_y = rng.uniform(1.0f, static_cast<float>(kSize) - glyph_h - 1.0f);

  // The noise is drawn first, in pixel order, then added to the glyph.
  rng.fill_normal(s.image.span(), 0.0f, noise);
  for (int64_t y = 0; y < kSize; ++y) {
    for (int64_t x = 0; x < kSize; ++x) {
      const float gx = (static_cast<float>(x) + 0.5f - off_x) / scale;
      const float gy = (static_cast<float>(y) + 0.5f - off_y) / scale;
      const float value =
          font_bit(s.label, gx, gy) ? foreground : background;
      float& px = s.image.at(0, y, x);
      px = std::clamp(value + px, 0.0f, 1.0f);
    }
  }
  return s;
}

}  // namespace tincy::data
