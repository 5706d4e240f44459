#include "nn/zoo.hpp"

#include <cmath>
#include <sstream>

#include "nn/builder.hpp"
#include "nn/connected_layer.hpp"
#include "nn/conv_layer.hpp"

namespace tincy::nn::zoo {
namespace {

struct ConvSpec {
  int filters;
  int size = 3;
  int stride = 1;
  bool batch_normalize = true;
  bool followed_by_pool = false;
  int pool_stride = 2;
};

void emit_conv(std::ostream& os, const ConvSpec& c, bool hidden_quant,
               const char* activation, const std::string& kernel) {
  os << "[convolutional]\n";
  if (c.batch_normalize) os << "batch_normalize=1\n";
  os << "filters=" << c.filters << "\nsize=" << c.size
     << "\nstride=" << c.stride << "\npad=1\nactivation=" << activation
     << "\n";
  if (hidden_quant) os << "binary=1\nabits=3\nkernel=quant_reference\n";
  else if (!kernel.empty()) os << "kernel=" << kernel << "\n";
  os << "\n";
}

}  // namespace

std::string variant_name(TinyVariant v) {
  switch (v) {
    case TinyVariant::kTiny:
      return "Tiny YOLO";
    case TinyVariant::kA:
      return "Tiny YOLO + (a)";
    case TinyVariant::kABC:
      return "Tiny YOLO + (a,b,c)";
    case TinyVariant::kTincy:
      return "Tincy YOLO";
  }
  return "?";
}

std::string tiny_yolo_cfg(TinyVariant v, QuantMode q, int input_size,
                          CpuProfile p) {
  const bool mod_a = v != TinyVariant::kTiny;
  const bool mod_bc = v == TinyVariant::kABC || v == TinyVariant::kTincy;
  const bool mod_d = v == TinyVariant::kTincy;
  const bool quant = q == QuantMode::kW1A3;
  const char* hidden_act = mod_a ? "relu" : "leaky";

  // Hidden conv ladder: filters of convs 2..8 (paper layers 3..14).
  const int c3 = mod_bc ? 64 : 32;
  const int c13 = mod_bc ? 512 : 1024;
  const int c14 = mod_bc ? 512 : 1024;

  std::string float_kernel =
      p == CpuProfile::kReference ? "reference" : "fused";
  std::string first_kernel;
  std::string last_kernel;
  switch (p) {
    case CpuProfile::kReference:
      first_kernel = "reference";
      last_kernel = "reference";
      break;
    case CpuProfile::kFused:
      first_kernel = "fused";
      last_kernel = "fused";
      break;
    case CpuProfile::kOptimized:
      first_kernel = "first16_acc16";
      last_kernel = "lowp";
      break;
  }

  std::ostringstream os;
  os << "# " << variant_name(v) << (quant ? " [W1A3]" : " [Float]") << "\n";
  os << "[net]\nwidth=" << input_size << "\nheight=" << input_size
     << "\nchannels=3\n\n";

  // Layer 1: input conv (quantization-sensitive, stays 8-bit/float).
  emit_conv(os,
            {.filters = 16, .size = 3, .stride = mod_d ? 2 : 1,
             .batch_normalize = true},
            /*hidden_quant=*/false, hidden_act, first_kernel);
  if (!mod_d) os << "[maxpool]\nsize=2\nstride=2\n\n";

  // Hidden ladder (paper layers 3-14): conv+pool pairs then two 3x3 convs.
  const ConvSpec hidden[] = {
      {.filters = c3, .followed_by_pool = true},
      {.filters = 64, .followed_by_pool = true},
      {.filters = 128, .followed_by_pool = true},
      {.filters = 256, .followed_by_pool = true},
      {.filters = 512, .followed_by_pool = true, .pool_stride = 1},
      {.filters = c13},
      {.filters = c14},
  };
  for (const auto& c : hidden) {
    emit_conv(os, c, quant, hidden_act, float_kernel);
    if (c.followed_by_pool)
      os << "[maxpool]\nsize=2\nstride=" << c.pool_stride << "\n\n";
  }

  // Layer 15: output conv (quantization-sensitive, 8-bit at most).
  os << "[convolutional]\nfilters=125\nsize=1\nstride=1\npad=1\n"
        "activation=linear\nkernel="
     << last_kernel << "\n\n";

  os << "[region]\n"
        "anchors=1.08,1.19, 3.42,4.41, 6.63,11.38, 9.42,5.11, 16.62,10.52\n"
        "classes=20\ncoords=4\nnum=5\nsoftmax=1\n";
  return os.str();
}

std::string mlp4_cfg() {
  std::ostringstream os;
  os << "# MLP-4 (MNIST, W1A1)\n"
        "[net]\nwidth=28\nheight=28\nchannels=1\n\n";
  for (int i = 0; i < 3; ++i)
    os << "[connected]\noutput=1024\nactivation=relu\nbinary=1\nabits=1\n\n";
  os << "[connected]\noutput=10\nactivation=linear\nbinary=1\nabits=1\n";
  return os.str();
}

std::string cnv6_cfg() {
  std::ostringstream os;
  os << "# CNV-6 (CIFAR-10 class, 8-bit first conv + W1A1)\n"
        "[net]\nwidth=32\nheight=32\nchannels=3\n\n";
  // First conv: quantization-sensitive, 8-bit (the paper's 3.1 M bucket).
  os << "[convolutional]\nbatch_normalize=1\nfilters=64\nsize=3\nstride=1\n"
        "pad=0\nactivation=relu\nkernel=lowp\n\n";
  const struct {
    int filters;
    bool pool_after;
  } specs[] = {{64, true}, {128, false}, {128, true}, {256, false}, {256, false}};
  for (const auto& s : specs) {
    os << "[convolutional]\nbatch_normalize=1\nfilters=" << s.filters
       << "\nsize=3\nstride=1\npad=0\nactivation=relu\nbinary=1\nabits=1\n"
          "kernel=quant_reference\n\n";
    if (s.pool_after) os << "[maxpool]\nsize=2\nstride=2\n\n";
  }
  os << "[connected]\noutput=512\nactivation=relu\nbinary=1\nabits=1\n\n"
        "[connected]\noutput=512\nactivation=relu\nbinary=1\nabits=1\n\n"
        "[connected]\noutput=10\nactivation=linear\nbinary=1\nabits=1\n";
  return os.str();
}

std::unique_ptr<Network> build(const std::string& cfg_text) {
  return build_network_from_string(cfg_text);
}

void randomize(Network& net, Rng& rng) {
  for (int64_t i = 0; i < net.num_layers(); ++i) {
    if (auto* conv = dynamic_cast<ConvLayer*>(&net.layer(i))) {
      Tensor& w = conv->weights();
      const auto fan_in = static_cast<float>(conv->geometry().patch_size());
      const float stddev = std::sqrt(2.0f / fan_in);
      rng.fill_normal(w.span(), 0.0f, stddev);
      rng.fill_normal(conv->biases().span(), 0.0f, 0.05f);
      if (conv->config().batch_normalize) {
        for (int64_t c = 0; c < conv->bn_scales().numel(); ++c) {
          conv->bn_scales()[c] = rng.uniform(0.8f, 1.2f);
          conv->bn_mean()[c] = rng.normal(0.0f, 0.1f);
          conv->bn_var()[c] = rng.uniform(0.8f, 1.2f);
        }
      }
      conv->invalidate_cached_quantization();
    } else if (auto* fc = dynamic_cast<ConnectedLayer*>(&net.layer(i))) {
      Tensor& w = fc->weights();
      const float stddev = std::sqrt(2.0f / static_cast<float>(fc->inputs()));
      rng.fill_normal(w.span(), 0.0f, stddev);
      rng.fill_normal(fc->biases().span(), 0.0f, 0.05f);
      fc->invalidate_cached_quantization();
    }
  }
}

}  // namespace tincy::nn::zoo
