#pragma once

/// \file network.hpp
/// The network container: an ordered list of layers plus their activation
/// buffers. Besides the classic whole-net forward() it exposes per-layer
/// invocation — the paper had to "disintegrate" Darknet's forward pass to
/// feed individual layers into the frame pipeline (§III-F); here that
/// access is first-class.
///
/// Per-layer timing is reported through the telemetry registry: every
/// run_layer/run_layer_into span records into `net.layer.<i>.<type>.ms`
/// and forward() additionally into `net.forward.ms`.

#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace tincy::nn {

class Network {
 public:
  /// `metrics` defaults to the process-wide registry; hand a dedicated
  /// one for isolated measurements (tests, side-by-side comparisons).
  explicit Network(Shape input_shape,
                   telemetry::MetricsRegistry* metrics = nullptr);

  /// Appends a layer; its input shape is the current output shape.
  void add(LayerPtr layer);

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  const std::vector<LayerPtr>& layers() const { return layers_; }
  Layer& layer(int64_t i) { return *layers_[static_cast<size_t>(i)]; }
  const Layer& layer(int64_t i) const { return *layers_[static_cast<size_t>(i)]; }

  Shape input_shape() const { return input_shape_; }
  /// Input shape of layer i (== output shape of layer i−1).
  Shape layer_input_shape(int64_t i) const;
  /// Output shape of the whole network.
  Shape output_shape() const;

  /// Whole-network inference; returns the final feature map. Each layer
  /// records a telemetry span retrievable via snapshot().
  const Tensor& forward(const Tensor& input);

  /// Runs a single layer on an explicit input (pipeline mode). The result
  /// lands in this layer's activation buffer and is returned.
  const Tensor& run_layer(int64_t i, const Tensor& in);

  /// Runs a single layer into an external output buffer — the demo
  /// pipeline's per-frame-buffer mode, where concurrent frames must not
  /// share activation storage. Records the same telemetry span as
  /// run_layer, so per-layer timings stay fresh in pipeline mode.
  void run_layer_into(int64_t i, const Tensor& in, Tensor& out);

  /// Activation buffer of layer i after the last forward/run_layer.
  const Tensor& layer_output(int64_t i) const;

  /// Sample of this network's metrics (the `net.` namespace of its
  /// registry): per-layer latency histograms plus `net.forward.ms`.
  telemetry::Snapshot snapshot() const;

  /// The registry this network reports into.
  telemetry::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  Shape input_shape_;
  telemetry::MetricsRegistry* metrics_;
  std::vector<LayerPtr> layers_;
  std::vector<Tensor> outputs_;
  std::vector<telemetry::Histogram*> layer_hist_;  ///< net.layer.<i>.<type>.ms
  std::vector<std::string> layer_trace_names_;     ///< net.layer.<i>.<type>
  telemetry::Histogram* forward_hist_;             ///< net.forward.ms
};

}  // namespace tincy::nn
