#pragma once

/// \file precision.hpp
/// Precision classes used to bucket dot-product work the way the paper's
/// Table II does: aggressively quantized ("reduced") operations such as
/// W1A1/W1A3 versus conservative 8-bit operations versus float.

#include <cstdint>
#include <string>

namespace tincy::nn {

/// Weight/activation bit-width descriptor. 32 bits denotes float.
struct Precision {
  int weight_bits = 32;
  int act_bits = 32;

  bool is_float() const { return weight_bits >= 32 && act_bits >= 32; }

  /// Reduced-precision in the paper's sense: below 8 bits, i.e. the class
  /// a FINN-style fabric accelerator handles (W1A1, W1A3, ...).
  bool is_reduced() const { return !is_float() && weight_bits < 8 && act_bits < 8; }

  /// Conservative fixed point (8-bit weights or activations, not reduced).
  bool is_8bit() const { return !is_float() && !is_reduced(); }

  /// Display name: "Float", "W1A3", "W8A8", ...
  std::string name() const {
    if (is_float()) return "Float";
    return "W" + std::to_string(weight_bits) + "A" + std::to_string(act_bits);
  }

  bool operator==(const Precision&) const = default;
};

inline constexpr Precision kFloat{32, 32};
inline constexpr Precision kW1A1{1, 1};
inline constexpr Precision kW1A3{1, 3};
inline constexpr Precision kW8A8{8, 8};

}  // namespace tincy::nn
