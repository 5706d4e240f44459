#include "nn/network.hpp"

namespace tincy::nn {

Network::Network(Shape input_shape, telemetry::MetricsRegistry* metrics)
    : input_shape_(input_shape),
      metrics_(metrics ? metrics : &telemetry::MetricsRegistry::global()) {
  TINCY_CHECK_MSG(input_shape.rank() >= 1, "empty input shape");
  forward_hist_ = &metrics_->histogram("net.forward.ms");
}

void Network::add(LayerPtr layer) {
  TINCY_CHECK(layer != nullptr);
  outputs_.emplace_back(layer->output_shape());
  const std::string label = "net.layer." + std::to_string(layers_.size()) +
                            "." + layer->type_name();
  layer_hist_.push_back(&metrics_->histogram(label + ".ms"));
  layer_trace_names_.push_back(label);
  layers_.push_back(std::move(layer));
}

Shape Network::layer_input_shape(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  return i == 0 ? input_shape_
                : layers_[static_cast<size_t>(i - 1)]->output_shape();
}

Shape Network::output_shape() const {
  TINCY_CHECK_MSG(!layers_.empty(), "empty network");
  return layers_.back()->output_shape();
}

const Tensor& Network::forward(const Tensor& input) {
  TINCY_CHECK_MSG(!layers_.empty(), "empty network");
  telemetry::ScopedTimer span(*forward_hist_);
  const Tensor* current = &input;
  for (int64_t i = 0; i < num_layers(); ++i) {
    current = &run_layer(i, *current);
  }
  return *current;
}

const Tensor& Network::run_layer(int64_t i, const Tensor& in) {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  run_layer_into(i, in, outputs_[static_cast<size_t>(i)]);
  return outputs_[static_cast<size_t>(i)];
}

void Network::run_layer_into(int64_t i, const Tensor& in, Tensor& out) {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  telemetry::ScopedTimer span(*layer_hist_[static_cast<size_t>(i)]);
  // Trace span tagged with the frame identity installed by the
  // server/pipeline worker (docs/observability.md "Tracing").
  telemetry::TraceSpan trace(&telemetry::TraceCollector::global(),
                             layer_trace_names_[static_cast<size_t>(i)],
                             telemetry::current_trace_context());
  layers_[static_cast<size_t>(i)]->forward(in, out);
}

const Tensor& Network::layer_output(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  return outputs_[static_cast<size_t>(i)];
}

telemetry::Snapshot Network::snapshot() const {
  return metrics_->snapshot("net.");
}

}  // namespace tincy::nn
