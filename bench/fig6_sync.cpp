// Reproduces Fig. 6: the producer/consumer free/avail synchronization of
// pipelined frame processing — stressing the single-slot handshake with
// many frames, jittered stage durations and varying worker counts, and
// verifying the ordering guarantee ("prevents that one frame overtakes
// another") plus the job-selection policy's consequences.

#include <atomic>
#include <cstdio>
#include <thread>

#include "core/rng.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/virtual_time.hpp"
#include "video/sink.hpp"

using namespace tincy;

int main() {
  std::printf("FIG. 6 — SYNCHRONIZATION OF PIPELINED FRAME PROCESSING\n\n");

  std::printf("%7s %7s %8s %9s %s\n", "workers", "stages", "frames",
              "host fps", "ordering");
  bool all_ordered = true;
  for (const int workers : {1, 2, 4, 8}) {
    for (const int num_stages : {3, 6}) {
      std::atomic<int64_t> next{0};
      Rng jitter(static_cast<uint64_t>(workers * 100 + num_stages));
      std::vector<serve::ServeStage> stages;
      for (int s = 0; s < num_stages; ++s) {
        // Jittered busy-wait stages exercise out-of-order completions.
        const int base_us = 100 + static_cast<int>(jitter.uniform_int(0, 400));
        stages.push_back({"s" + std::to_string(s),
                          [base_us](video::Frame&) {
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(base_us));
                          }});
      }
      video::OrderCheckingSink sink;
      pipeline::PipelineOptions po;
      po.stages = std::move(stages);
      po.source = [&next] {
        video::Frame f;
        f.sequence = next++;
        return f;
      };
      po.sink = [&sink](const video::Frame& f) { sink.push(f); };
      po.num_workers = workers;
      pipeline::Pipeline p(std::move(po));
      p.run(200);
      all_ordered = all_ordered && sink.in_order();
      std::printf("%7d %7d %8lld %9.0f %s\n", workers, num_stages,
                  static_cast<long long>(sink.frames_received()),
                  p.snapshot().gauge_value("serve.session.pipeline.fps"),
                  sink.in_order() ? "preserved" : "VIOLATED");
    }
  }

  // The free/avail handshake in virtual time: a single-slot buffer means a
  // fast producer is throttled by its consumer (back-pressure).
  std::printf("\nback-pressure (virtual time): producer 5 ms, consumer 20 ms\n");
  const std::vector<pipeline::TimedStage> stages{{"producer", 5.0, ""},
                                                 {"consumer", 20.0, ""}};
  const auto sim = pipeline::simulate(stages, 4, 100);
  std::printf("throughput %.1f fps — gated by the consumer (50.0 expected)\n",
              sim.fps);

  std::printf("\nall orderings preserved: %s\n", all_ordered ? "yes" : "NO");
  return all_ordered ? 0 : 1;
}
