#pragma once

/// \file server.hpp
/// Multi-stream serving layer over the shared fabric engine.
///
/// The Fig. 5 demo pipelines ONE video stream; a serving deployment has N
/// independent streams contending for the single conv+pool engine. The
/// StreamServer accepts per-session frame submissions, runs every session
/// through its own stage chain (single-slot free/avail buffers, exactly
/// the paper's Fig. 6 handshake), and multiplexes engine-tagged stages
/// over the EngineArbiter:
///
///  * scheduling is most-mature-first *within* a session (the paper's
///    policy) and round-robin *across* sessions, with engine access
///    weighted and priority-tiered per session by the arbiter;
///  * engine stages that name an offloaded layer (ServeStage::
///    engine_layer >= 0) are **gang-scheduled**: when several sessions
///    have a frame waiting at the same layer, one engine grant covers up
///    to ArbiterOptions::max_batch of them and the leader's batch_work
///    runs the whole gang — one weight-streaming phase instead of one per
///    frame (docs/ARCHITECTURE.md §6). Lone frames fall back to
///    single-frame grants;
///  * each session has a bounded admission queue with a configurable
///    overload policy: reject (kOverloaded backpressure), shed-oldest
///    (drop the stalest queued frame to admit the new one), or degrade
///    (run the session's degrade hook on admissions under pressure);
///  * delivery is in order per session: the single-slot chain prevents a
///    frame overtaking another, stream by stream;
///  * sessions churn freely: open_session/close_session work while the
///    server is running, and a stage that throws quarantines only its own
///    session — queued frames are discarded, the session stops accepting
///    submissions, and every other stream keeps flowing. A batch_work
///    that throws poisons every session in the gang (their frames were in
///    the same engine pass);
///  * a session may instead be fed by a pull source, the paper's
///    always-available video source (SessionConfig::source): the worker
///    that claims its stage 0 captures the next frame, while pull()
///    grants budget. pipeline::Pipeline is exactly one such session;
///  * one worker per core, pinned to it (best-effort on the host), as in
///    the paper's demo mode.
///
/// Telemetry (see docs/observability.md):
///   serve.session.<name>.frames      counter, frames delivered
///   serve.session.<name>.latency_ms  histogram, submit -> delivery
///   serve.session.<name>.latency_ms.window  last-10s sliding histogram
///   serve.session.<name>.fps         gauge, deliveries/s since start()
///   serve.session.<name>.fps.window  gauge, deliveries/s over last 10 s
///   serve.session.<name>.stage.<stage>.busy_ms  histogram, stage job
///                                    time, one sample per frame
///   serve.session.<name>.stage.<stage>.wait_ms  histogram, input dwell
///                                    (upstream deposit or admission ->
///                                    claim; 0 for a pull source)
///   serve.session.<name>.queue_depth gauge, Little's-law mean admission-
///                                    queue depth (Σ queue-wait / elapsed)
///   serve.session.<name>.rejected    counter, kOverloaded submissions
///   serve.session.<name>.shed        counter, frames shed by kShedOldest
///   serve.session.<name>.degraded    counter, degrade-hook invocations
///   serve.session.<name>.dropped     counter, frames discarded at
///                                    close/quarantine
///   serve.session.<name>.faults      counter, stage/deliver exceptions
///   serve.session.<name>.quarantined gauge, 1 once quarantined
///   serve.arbiter.grants / .queue_depth / .batch_size (EngineArbiter)
///
/// Tracing (docs/observability.md "Tracing"): when ServerOptions::trace
/// is enabled, every frame leaves an async "frame" span (submit ->
/// delivery/drop), an async "queue" span (admission dwell), per-stage
/// "stage:<name>" spans, "arbiter.wait" spans, and "gang" seat instants.
/// A source-fed session traces under session id −1, the id of the
/// single-stream demo, and its frames have no "queue" span.
/// When a session is quarantined and flight_recorder_dir is set, the
/// last flight_recorder_events trace events touching that session plus
/// the fault message are dumped to
/// `<flight_recorder_dir>/flight_<name>.json` (Perfetto-loadable).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/arbiter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "video/frame.hpp"

namespace tincy::serve {

/// A session or stage name as it appears in metric names and
/// flight-recorder file names: characters outside [A-Za-z0-9._-] become
/// '_'.
std::string metric_label(std::string_view name);

/// Outcome of a frame submission.
enum class ServeResult {
  kAccepted,     ///< queued; the session's deliver hook will see it
  kOverloaded,   ///< admission queue full — backpressure, retry later
  kClosed,       ///< server not running, or the session was closed
  kQuarantined,  ///< the session faulted and no longer accepts frames
};

/// What submit() does when a session's admission queue is full (and, for
/// kDegrade, when it is merely under pressure).
enum class OverloadPolicy {
  /// Refuse the new frame with kOverloaded (pure backpressure; default).
  kReject,
  /// Discard the oldest *queued* (not yet started) frame — counted in
  /// serve.session.<name>.shed — and admit the new one: freshness wins.
  kShedOldest,
  /// Run SessionConfig::degrade on every admission once the queue depth
  /// reaches degrade_at × capacity (counted in .degraded), e.g. to
  /// downshift the input resolution; a completely full queue still
  /// rejects with kOverloaded.
  kDegrade,
};

/// One stage of a session's processing chain. Stages with `uses_engine`
/// run only while the session holds the fabric engine grant; everything
/// else overlaps freely across sessions. A stage that throws poisons its
/// session: the session is quarantined, never the server.
/// Every field after `work` has a default, so `{name, work}` and
/// `{name, work, uses_engine}` spell a plain stage.
struct ServeStage {
  std::string name;
  std::function<void(video::Frame&)> work;
  bool uses_engine = false;
  /// Batched variant for gang-scheduled engine stages: invoked once per
  /// grant over every frame of the gang, the leader's frame first. The
  /// *leader's* batch_work processes all member frames under one engine
  /// hold, so sessions that declare the same engine_layer must install
  /// equivalent batch_work (same offloaded layer, shared weights). A lone
  /// grant runs `work` when present, otherwise batch_work on a 1-span.
  std::function<void(std::span<video::Frame* const>)> batch_work = nullptr;
  /// Identity of the offloaded layer this stage runs, for gang
  /// coalescing: engine stages of different sessions with the same
  /// engine_layer may be batched into one grant. −1 = unbatchable
  /// (always a single-frame grant). Requires uses_engine and batch_work.
  int64_t engine_layer = -1;
};

/// A client stream: its own stage chain (own network instance — sessions
/// share no mutable state), in-order result delivery, an arbiter weight,
/// a priority tier and an admission-queue bound.
struct SessionConfig {
  /// Metric label; defaults to "s<index>" when empty. Normalized at
  /// open_session: characters outside [A-Za-z0-9._-] become '_' so the
  /// name is safe as a metric-name component and a flight-recorder file
  /// name; names longer than 100 characters are rejected.
  std::string name;
  std::vector<ServeStage> stages;
  /// In-order delivery hook; invoked from worker threads, never
  /// concurrently for the same session.
  std::function<void(video::Frame&&)> deliver;
  /// Pull source: when set, the session takes no submit()ted frames.
  /// Instead the worker that claims stage 0 calls source() for the next
  /// frame, as long as the budget granted by pull() lasts; the stage-0
  /// slot serializes the calls. Stage 0 must then be a CPU stage.
  std::function<video::Frame()> source;
  /// Under OverloadPolicy::kDegrade: applied to a frame at admission when
  /// the queue is past the pressure mark. Runs inside submit() under the
  /// server lock — keep it cheap (flip a resolution flag, subsample) and
  /// never call back into the server from it.
  std::function<void(video::Frame&)> degrade;
  int weight = 1;    ///< engine share within the priority tier (>= 1)
  int priority = 0;  ///< engine priority tier, higher preempts (>= 0)
  int64_t queue_capacity = 8;  ///< admission bound (>= 1)
};

struct ServerOptions {
  int num_workers = 4;  ///< shared worker pool (paper: 4 × A53)
  /// Server-wide admission behavior under overload.
  OverloadPolicy overload_policy = OverloadPolicy::kReject;
  /// kDegrade pressure mark as a fraction of queue_capacity, in (0, 1].
  double degrade_at = 0.5;
  /// Gang-scheduling knobs handed to the EngineArbiter (max_batch,
  /// batch_linger_us). The default disables coalescing.
  ArbiterOptions arbiter;
  /// Registry for serve.* metrics; null selects the process-wide default.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Trace sink for per-frame events; null selects
  /// telemetry::TraceCollector::global(). Emission only happens while the
  /// collector is enabled (one relaxed load per site otherwise).
  telemetry::TraceCollector* trace = nullptr;
  /// When non-empty, a quarantine dumps the session's trace tail + fault
  /// message to `<dir>/flight_<name>.json` (directory created on demand).
  std::string flight_recorder_dir;
  /// Cap on trace events per flight-recorder dump (>= 1).
  int64_t flight_recorder_events = 256;
};

class StreamServer {
 public:
  /// Validates the options (num_workers >= 1, degrade_at in (0, 1]).
  explicit StreamServer(ServerOptions options = {});

  /// stop()s and joins; queued frames that never started are dropped,
  /// frames inside a stage finish their buffer handoff first.
  ~StreamServer();

  /// Registers a stream — before start() or live, mid-serve (churn).
  /// Validates the config (stages non-empty, each stage has work or
  /// batch_work, batch_work/engine_layer only on engine stages, no engine
  /// stage 0 under a source, queue_capacity >= 1, weight >= 1,
  /// priority >= 0). Returns the session id used by submit()/accessors;
  /// ids are never reused.
  int64_t open_session(SessionConfig cfg);

  /// Closes a stream (idempotent): queued frames that never started are
  /// discarded (counted in serve.session.<name>.dropped), frames already
  /// inside the stage chain run to delivery, and further submissions
  /// answer kClosed. Works while the server is running — the churn path.
  /// A closed session's pending gang-queue entry is withdrawn, so it can
  /// never join a batch forming after this call.
  void close_session(int64_t session);

  /// Spawns the worker pool and begins accepting submissions. Resets
  /// every registered session to a fresh open state (clears closed /
  /// quarantined flags and the serve.* metrics of this server's sessions).
  void start();

  /// Admits one frame into the session's queue, applying the overload
  /// policy when the queue is full. Thread safe; any number of producer
  /// threads may submit concurrently. Not for source-fed sessions.
  ServeResult submit(int64_t session, video::Frame frame);

  /// Lets a source-fed session capture `frames` more frames from its
  /// source. start(), close_session() and quarantine reset the budget.
  ServeResult pull(int64_t session, int64_t frames);

  /// Blocks until every admitted frame has been delivered or discarded
  /// and every pull budget is spent (or stop() is requested elsewhere).
  void drain();

  void stop();

  bool running() const;
  int64_t num_sessions() const;
  int64_t queue_depth(int64_t session) const;   ///< admitted, not yet started
  int64_t delivered(int64_t session) const;
  int64_t rejected(int64_t session) const;
  bool closed(int64_t session) const;
  bool quarantined(int64_t session) const;
  /// what() of the exception that quarantined the session ("" if healthy).
  std::string fault_message(int64_t session) const;

  EngineArbiter& arbiter() { return arbiter_; }
  telemetry::MetricsRegistry& metrics() const { return *metrics_; }
  telemetry::Snapshot snapshot() const { return metrics_->snapshot(); }

 private:
  /// Single-slot output buffer of one stage (Fig. 6 free/avail handshake).
  struct Slot {
    std::optional<video::Frame> frame;
    bool reserved = false;
    std::chrono::steady_clock::time_point deposited;  ///< frame arrival
  };

  struct StageMetrics {
    telemetry::Histogram* busy_ms;
    telemetry::Histogram* wait_ms;
  };

  struct Session {
    SessionConfig cfg;
    /// Session id on trace events: −1 when source-fed, else the id.
    int64_t trace_id = -1;
    /// Source pulls left (source-fed sessions only).
    int64_t pull_budget = 0;
    std::deque<video::Frame> queue;  ///< admission queue (pre stage 0)
    /// Submission timestamps of undelivered, undiscarded frames in
    /// admission order: the in-flight frames first, then the queued ones.
    std::deque<std::chrono::steady_clock::time_point> submit_times;
    std::vector<Slot> slots;
    int64_t admitted = 0;
    int64_t done = 0;
    /// Frames that will never be delivered: shed under overload, dropped
    /// at close/quarantine. drain() waits for done + discarded == admitted.
    int64_t discarded = 0;
    bool closed = false;
    bool quarantined = false;
    /// Closed/quarantined AND fully drained: skipped by the job scan and
    /// removed from the arbiter, so dead churned sessions cost one branch.
    bool retired = false;
    std::string last_fault;
    /// Σ admission-queue dwell ms of claimed frames; queue_depth_gauge
    /// publishes this over elapsed time (Little's law).
    double queue_wait_ms = 0.0;
    /// Trace epoch (collector ms) of the first denied engine claim of the
    /// current wait, −1 while not waiting; closes an "arbiter.wait" span.
    double engine_wait_start_ms = -1.0;
    /// Pre-built "stage:<name>" span labels, one per stage.
    std::vector<std::string> stage_trace_names;
    std::vector<StageMetrics> stage_metrics;
    telemetry::Counter* frames_counter;
    telemetry::Histogram* latency_hist;
    telemetry::WindowedHistogram* latency_window;
    telemetry::Gauge* fps_gauge;
    telemetry::WindowedRate* fps_window;
    telemetry::Gauge* queue_depth_gauge;
    telemetry::Counter* rejected_counter;
    telemetry::Counter* shed_counter;
    telemetry::Counter* degraded_counter;
    telemetry::Counter* dropped_counter;
    telemetry::Counter* faults_counter;
    telemetry::Gauge* quarantined_gauge;

    bool output_free(size_t stage) const {
      return !slots[stage].reserved && !slots[stage].frame.has_value();
    }
    bool input_ready(size_t stage) const {
      if (stage > 0) return slots[stage - 1].frame.has_value();
      return cfg.source ? pull_budget > 0 : !queue.empty();
    }
  };

  /// One (session, stage) membership of a claimed job.
  struct Claim {
    int64_t session = -1;
    int64_t stage = -1;
  };

  /// One claimable unit of work: the gang members (leader first; exactly
  /// one entry for plain CPU stages and single-frame grants) plus whether
  /// the claim came with the engine grant already held by the leader.
  struct Job {
    std::vector<Claim> members;
    bool engine = false;
  };

  /// Scans sessions round-robin (rotating start), stages back-to-front
  /// (most mature first). Acquires the engine for engine-tagged stages as
  /// part of the claim — gang-scheduled for stages naming an
  /// engine_layer, with same-layer runnable frames of other sessions
  /// verified under this lock and offered to the arbiter as candidates. A
  /// denial skips the stage, leaving a pending claim with the arbiter.
  bool find_job_locked(Job& job);
  /// Pins itself to core `worker_index` (best-effort), then claims and
  /// runs jobs until stop().
  void worker_loop(int worker_index);
  /// The session with this id; throws on an unknown id.
  Session& session_locked(int64_t session) const;
  /// Poisons the session: discards its queued and slot-held frames,
  /// withdraws its engine claim and stops admissions. Server keeps going.
  void quarantine_locked(int64_t session, const std::string& what);
  /// Marks a drained closed/quarantined session retired and forgets it at
  /// the arbiter.
  void maybe_retire_locked(int64_t session);
  void reset_session_locked(Session& s);
  /// Emits async-end events for every frame the session still owns
  /// (queued + slot deposits) with the given outcome. Trace-gated.
  void trace_drop_owned_locked(const Session& s, const char* outcome);
  /// Closes a pending "arbiter.wait" span when an engine claim that was
  /// previously denied finally succeeds. Trace-gated.
  void trace_engine_granted_locked(Session& s, int64_t layer);
  /// Writes the flight-recorder post-mortem for a quarantined session.
  void flight_record_locked(const Session& s, int64_t session,
                            const std::string& what);

  ServerOptions options_;
  telemetry::MetricsRegistry* metrics_;
  telemetry::TraceCollector* trace_;
  EngineArbiter arbiter_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< workers: claimable work may exist
  /// drain(): a session ran out of work, or the server stopped. Apart
  /// from cv_, so a drain()ing caller sleeps through the frames.
  std::condition_variable drained_cv_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::thread> workers_;
  size_t rr_next_ = 0;  ///< next session the job scan starts from
  int64_t grant_seq_ = 0;  ///< trace-visible engine grant ids
  int64_t wait_seq_ = 0;   ///< async ids for arbiter.wait trace spans
  std::chrono::steady_clock::time_point start_time_{};
  bool running_ = false;
  bool stopping_ = false;
};

}  // namespace tincy::serve
