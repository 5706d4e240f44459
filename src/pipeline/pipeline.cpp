#include "pipeline/pipeline.hpp"

#include "core/errors.hpp"

namespace tincy::pipeline {

namespace {

serve::ServerOptions server_options(const PipelineOptions& options) {
  serve::ServerOptions so;
  so.num_workers = options.num_workers;
  so.metrics = options.metrics;
  so.trace = options.trace;
  return so;
}

}  // namespace

Pipeline::Pipeline(PipelineOptions options)
    : server_(server_options(options)) {
  TINCY_CHECK(options.source != nullptr && options.sink != nullptr);
  serve::SessionConfig sc;
  sc.name = "pipeline";
  sc.stages = std::move(options.stages);
  sc.source = std::move(options.source);
  sc.deliver = [sink = std::move(options.sink)](video::Frame&& f) {
    sink(f);  // "the video sink is always free"
  };
  session_ = server_.open_session(std::move(sc));
}

void Pipeline::run(int64_t num_frames) {
  start(num_frames);
  wait();
}

void Pipeline::start(int64_t num_frames) {
  TINCY_CHECK_MSG(num_frames >= 1, "num_frames " << num_frames);
  server_.start();
  server_.pull(session_, num_frames);
}

void Pipeline::wait() {
  server_.drain();
  server_.stop();
}

void Pipeline::stop() { server_.close_session(session_); }

}  // namespace tincy::pipeline
