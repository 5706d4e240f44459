#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/errors.hpp"

#ifdef __linux__
#include <pthread.h>
#endif

namespace tincy::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// "One worker thread is allocated for each available core and tied to
/// it" (§III-F) — best-effort on the host.
void pin_to_core(int worker_index) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  CPU_SET(static_cast<unsigned>(worker_index) % ncpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#else
  (void)worker_index;
#endif
}

/// Runs `fn`; returns the what() of anything it throws.
template <class Fn>
std::optional<std::string> guarded(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return std::string(e.what());
  } catch (...) {
    return std::string("non-standard exception");
  }
  return std::nullopt;
}

}  // namespace

// Names become metric-name components and flight-recorder file names, so
// a name containing '"', '\', '/' or other punctuation can never corrupt
// a metric name, a JSON export or a dump path.
std::string metric_label(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                    c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

StreamServer::StreamServer(ServerOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics ? options_.metrics
                                : &telemetry::MetricsRegistry::global()),
      trace_(options_.trace ? options_.trace
                            : &telemetry::TraceCollector::global()),
      arbiter_(metrics_, options_.arbiter) {
  TINCY_CHECK_MSG(options_.num_workers >= 1,
                  "num_workers " << options_.num_workers);
  TINCY_CHECK_MSG(options_.degrade_at > 0.0 && options_.degrade_at <= 1.0,
                  "degrade_at " << options_.degrade_at
                                << " outside (0, 1]");
  TINCY_CHECK_MSG(options_.flight_recorder_events >= 1,
                  "flight_recorder_events "
                      << options_.flight_recorder_events);
}

StreamServer::~StreamServer() { stop(); }

int64_t StreamServer::open_session(SessionConfig cfg) {
  TINCY_CHECK_MSG(!cfg.stages.empty(), "session needs at least one stage");
  for (const auto& st : cfg.stages) {
    TINCY_CHECK_MSG(st.work || st.batch_work,
                    "stage '" << st.name << "' needs work or batch_work");
    TINCY_CHECK_MSG(!st.batch_work || st.uses_engine,
                    "stage '" << st.name
                              << "' has batch_work but not uses_engine");
    TINCY_CHECK_MSG(st.engine_layer < 0 || (st.uses_engine && st.batch_work),
                    "stage '" << st.name << "' names engine_layer "
                              << st.engine_layer
                              << " but lacks uses_engine+batch_work");
  }
  TINCY_CHECK_MSG(!cfg.source || !cfg.stages.front().uses_engine,
                  "stage 0 of a source-fed session must not use the engine");
  TINCY_CHECK_MSG(cfg.queue_capacity >= 1,
                  "queue_capacity " << cfg.queue_capacity);
  TINCY_CHECK_MSG(cfg.weight >= 1, "weight " << cfg.weight);
  TINCY_CHECK_MSG(cfg.priority >= 0, "priority " << cfg.priority);
  TINCY_CHECK_MSG(cfg.name.size() <= 100,
                  "session name of " << cfg.name.size()
                                     << " chars exceeds the 100-char limit");
  std::unique_lock lock(mutex_);
  const int64_t id = static_cast<int64_t>(sessions_.size());
  auto s = std::make_unique<Session>();
  s->cfg = std::move(cfg);
  if (s->cfg.name.empty()) s->cfg.name = "s" + std::to_string(id);
  // Normalize once so the session name, its metric names and its
  // flight-recorder file all agree (and stay JSON/path-safe).
  s->cfg.name = metric_label(s->cfg.name);
  s->trace_id = s->cfg.source ? -1 : id;
  s->slots.resize(s->cfg.stages.size());
  const std::string prefix = "serve.session." + s->cfg.name + ".";
  for (const auto& st : s->cfg.stages) {
    s->stage_trace_names.push_back("stage:" + st.name);
    const std::string stage = prefix + "stage." + metric_label(st.name);
    s->stage_metrics.push_back({&metrics_->histogram(stage + ".busy_ms"),
                                &metrics_->histogram(stage + ".wait_ms")});
  }
  s->frames_counter = &metrics_->counter(prefix + "frames");
  s->latency_hist = &metrics_->histogram(prefix + "latency_ms");
  s->latency_window = &metrics_->windowed_histogram(prefix + "latency_ms.window");
  s->fps_gauge = &metrics_->gauge(prefix + "fps");
  s->fps_window = &metrics_->windowed_rate(prefix + "fps.window");
  s->queue_depth_gauge = &metrics_->gauge(prefix + "queue_depth");
  s->rejected_counter = &metrics_->counter(prefix + "rejected");
  s->shed_counter = &metrics_->counter(prefix + "shed");
  s->degraded_counter = &metrics_->counter(prefix + "degraded");
  s->dropped_counter = &metrics_->counter(prefix + "dropped");
  s->faults_counter = &metrics_->counter(prefix + "faults");
  s->quarantined_gauge = &metrics_->gauge(prefix + "quarantined");
  arbiter_.add_session(id, s->cfg.weight, s->cfg.priority);
  sessions_.push_back(std::move(s));
  lock.unlock();
  cv_.notify_all();  // live churn: workers should see the new session
  return id;
}

void StreamServer::close_session(int64_t session) {
  std::unique_lock lock(mutex_);
  Session& s = session_locked(session);
  if (s.closed) return;
  s.closed = true;
  s.pull_budget = 0;
  // Frames that never entered the stage chain are dropped; in-flight
  // frames (slots + running stages) keep their submit_times front entries
  // and finish to delivery.
  const int64_t queued = static_cast<int64_t>(s.queue.size());
  if (queued > 0) {
    if (trace_->enabled()) {
      for (const auto& f : s.queue) {
        trace_->async_end("queue", s.trace_id, f.sequence);
        trace_->async_end("frame", s.trace_id, f.sequence,
                          "\"outcome\":\"dropped\"");
      }
    }
    s.queue.clear();
    s.submit_times.erase(s.submit_times.end() - queued, s.submit_times.end());
    s.discarded += queued;
    s.dropped_counter->add(queued);
  }
  // Withdraw any maturing engine claim: the work it was for may just have
  // been dropped, and a pending claim with no future acquire would hold
  // back every other session. In-flight frames that still need the engine
  // simply re-claim on their next scan.
  arbiter_.cancel(session);
  maybe_retire_locked(session);
  lock.unlock();
  cv_.notify_all();  // the withdrawn engine claim may unblock others
  drained_cv_.notify_all();
}

void StreamServer::start() {
  std::lock_guard lock(mutex_);
  TINCY_CHECK_MSG(!running_, "start() while already running");
  TINCY_CHECK_MSG(!sessions_.empty(), "start() with no sessions");
  for (size_t i = 0; i < sessions_.size(); ++i) {
    Session& s = *sessions_[i];
    reset_session_locked(s);
    // Retired sessions were forgotten by the arbiter; re-registering all
    // of them (remove is a no-op for the still-known ones) restarts every
    // session at the virtual-time floor.
    arbiter_.remove_session(static_cast<int64_t>(i));
    arbiter_.add_session(static_cast<int64_t>(i), s.cfg.weight,
                         s.cfg.priority);
  }
  rr_next_ = 0;
  // grant_seq_/wait_seq_ deliberately keep counting across start() calls
  // so trace ids stay unique over a whole process's trace.
  start_time_ = std::chrono::steady_clock::now();
  stopping_ = false;
  running_ = true;
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ServeResult StreamServer::submit(int64_t session, video::Frame frame) {
  std::unique_lock lock(mutex_);
  Session& s = session_locked(session);
  TINCY_CHECK_MSG(!s.cfg.source, "submit() to source-fed session "
                                     << session);
  if (!running_ || stopping_) return ServeResult::kClosed;
  if (s.quarantined) return ServeResult::kQuarantined;
  if (s.closed) return ServeResult::kClosed;
  if (static_cast<int64_t>(s.queue.size()) >= s.cfg.queue_capacity) {
    if (options_.overload_policy == OverloadPolicy::kShedOldest &&
        !s.queue.empty()) {
      // Freshness wins: evict the stalest *queued* frame (in-flight ones
      // are untouchable) to make room. Its timestamp sits right after the
      // in-flight block at the front of submit_times.
      const size_t in_flight = s.submit_times.size() - s.queue.size();
      if (trace_->enabled()) {
        const int64_t shed_seq = s.queue.front().sequence;
        trace_->async_end("queue", session, shed_seq);
        trace_->async_end("frame", session, shed_seq,
                          "\"outcome\":\"shed\"");
      }
      s.queue.pop_front();
      s.submit_times.erase(s.submit_times.begin() +
                           static_cast<std::ptrdiff_t>(in_flight));
      ++s.discarded;
      s.shed_counter->add(1);
    } else {
      s.rejected_counter->add(1);
      return ServeResult::kOverloaded;
    }
  }
  if (options_.overload_policy == OverloadPolicy::kDegrade && s.cfg.degrade) {
    const auto mark = static_cast<int64_t>(std::ceil(
        options_.degrade_at * static_cast<double>(s.cfg.queue_capacity)));
    if (static_cast<int64_t>(s.queue.size()) >= std::max<int64_t>(1, mark)) {
      s.cfg.degrade(frame);
      s.degraded_counter->add(1);
    }
  }
  if (trace_->enabled()) {
    trace_->async_begin("frame", session, frame.sequence);
    trace_->async_begin("queue", session, frame.sequence);
  }
  s.queue.push_back(std::move(frame));
  s.submit_times.push_back(std::chrono::steady_clock::now());
  ++s.admitted;
  lock.unlock();
  cv_.notify_all();
  return ServeResult::kAccepted;
}

ServeResult StreamServer::pull(int64_t session, int64_t frames) {
  TINCY_CHECK_MSG(frames >= 1, "frames " << frames);
  std::unique_lock lock(mutex_);
  Session& s = session_locked(session);
  TINCY_CHECK_MSG(s.cfg.source, "pull() on session " << session
                                                    << " without a source");
  if (!running_ || stopping_) return ServeResult::kClosed;
  if (s.quarantined) return ServeResult::kQuarantined;
  if (s.closed) return ServeResult::kClosed;
  s.pull_budget += frames;
  lock.unlock();
  cv_.notify_all();
  return ServeResult::kAccepted;
}

void StreamServer::trace_engine_granted_locked(Session& s, int64_t layer) {
  if (s.engine_wait_start_ms < 0) return;
  if (trace_->enabled()) {
    // The wait is only known retroactively, at grant time, and the
    // denial may have been observed by another worker — so it cannot be
    // a complete span on this thread's track (it would overlap spans
    // that ran here in the meantime). An async pair with its own id
    // keeps it an honest cross-thread interval.
    const double now = trace_->now_ms();
    const int64_t wait_id = wait_seq_++;
    char args[64];
    std::snprintf(args, sizeof args, "\"layer\":%lld,\"wait_ms\":%.3f",
                  static_cast<long long>(layer),
                  now - s.engine_wait_start_ms);
    trace_->emit(telemetry::TracePhase::kAsyncBegin, "arbiter.wait",
                 s.trace_id, wait_id, args, 0.0, s.engine_wait_start_ms);
    trace_->emit(telemetry::TracePhase::kAsyncEnd, "arbiter.wait",
                 s.trace_id, wait_id, args, 0.0, now);
  }
  s.engine_wait_start_ms = -1.0;
}

bool StreamServer::find_job_locked(Job& job) {
  const size_t n = sessions_.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t si = (rr_next_ + k) % n;
    Session& s = *sessions_[si];
    // Quarantined sessions hold no claimable frames (they were discarded
    // at the poison point); retired ones additionally left the arbiter.
    if (s.retired || s.quarantined) continue;
    for (int64_t i = static_cast<int64_t>(s.cfg.stages.size()) - 1; i >= 0;
         --i) {
      if (!s.output_free(static_cast<size_t>(i)) ||
          !s.input_ready(static_cast<size_t>(i)))
        continue;
      const ServeStage& st = s.cfg.stages[static_cast<size_t>(i)];
      if (!st.uses_engine) {
        job.members.assign(1, Claim{static_cast<int64_t>(si), i});
        job.engine = false;
        rr_next_ = (si + 1) % n;
        return true;
      }
      // Engine-tagged stages are claimed together with the engine grant;
      // a refusal leaves a maturing claim with the arbiter and the scan
      // moves on to overlappable CPU work of other sessions.
      if (st.engine_layer < 0) {
        if (!arbiter_.try_acquire(static_cast<int64_t>(si))) {
          if (s.engine_wait_start_ms < 0 && trace_->enabled())
            s.engine_wait_start_ms = trace_->now_ms();
          continue;
        }
        trace_engine_granted_locked(s, st.engine_layer);
        job.members.assign(1, Claim{static_cast<int64_t>(si), i});
        job.engine = true;
        rr_next_ = (si + 1) % n;
        return true;
      }
      // Gang-schedulable stage: collect every other session with a
      // runnable frame at the same offloaded layer right now — all
      // verified under this lock, so a grant can claim them atomically.
      std::vector<int64_t> cands;
      std::vector<int64_t> cand_stage(n, -1);
      for (size_t oj = 0; oj < n; ++oj) {
        if (oj == si) continue;
        Session& o = *sessions_[oj];
        if (o.retired || o.quarantined) continue;
        for (int64_t m = static_cast<int64_t>(o.cfg.stages.size()) - 1;
             m >= 0; --m) {
          const ServeStage& om = o.cfg.stages[static_cast<size_t>(m)];
          if (!om.uses_engine || om.engine_layer != st.engine_layer ||
              !o.output_free(static_cast<size_t>(m)) ||
              !o.input_ready(static_cast<size_t>(m)))
            continue;
          cands.push_back(static_cast<int64_t>(oj));
          cand_stage[oj] = m;
          break;  // deepest runnable same-layer stage of this session
        }
      }
      std::vector<int64_t> gang;
      if (!arbiter_.try_acquire_gang(static_cast<int64_t>(si),
                                     st.engine_layer, cands, gang)) {
        if (s.engine_wait_start_ms < 0 && trace_->enabled())
          s.engine_wait_start_ms = trace_->now_ms();
        continue;
      }
      trace_engine_granted_locked(s, st.engine_layer);
      job.members.clear();
      job.members.push_back(Claim{static_cast<int64_t>(si), i});
      for (size_t g = 1; g < gang.size(); ++g)
        job.members.push_back(
            Claim{gang[g], cand_stage[static_cast<size_t>(gang[g])]});
      job.engine = true;
      rr_next_ = (si + 1) % n;
      return true;
    }
  }
  return false;
}

void StreamServer::worker_loop(int worker_index) {
  pin_to_core(worker_index);
  std::unique_lock lock(mutex_);
  while (true) {
    Job job;
    // stopping_ is tested first: once a stop is requested no new job (and
    // in particular no engine grant) is claimed. While a gang leader
    // lingers for more peers the wait is timed, so a worker re-attempts
    // the acquisition right after the linger deadline even if nothing
    // else wakes it.
    while (!stopping_ && !find_job_locked(job)) {
      if (const auto deadline = arbiter_.linger_deadline())
        cv_.wait_until(lock, *deadline + std::chrono::microseconds(10));
      else
        cv_.wait(lock);
    }
    if (stopping_) return;

    // Claim every member's input under the same lock hold that formed the
    // gang — the candidates were verified runnable by find_job_locked.
    // Session pointers are pinned here too: the sessions_ vector may be
    // reallocated by a concurrent open_session once the lock drops, but
    // the Session objects themselves are heap-stable.
    const size_t nm = job.members.size();
    std::vector<video::Frame> frames(nm);
    std::vector<int64_t> seqs(nm, -1);
    std::vector<Session*> member_sessions(nm);
    const auto claimed = std::chrono::steady_clock::now();
    for (size_t m = 0; m < nm; ++m) {
      Session& ms = *sessions_[static_cast<size_t>(job.members[m].session)];
      member_sessions[m] = &ms;
      const auto stage = static_cast<size_t>(job.members[m].stage);
      ms.slots[stage].reserved = true;
      double wait_ms = 0.0;
      if (stage == 0 && ms.cfg.source) {
        // The source is always available: the frame is captured once the
        // lock drops, and counts as admitted from now on.
        --ms.pull_budget;
        ++ms.admitted;
        ms.submit_times.push_back(claimed);
      } else if (stage == 0) {
        // Admission-queue dwell of the claimed frame: its submission
        // timestamp sits right after the in-flight block. Feeds the
        // Little's-law queue_depth gauge (Σ dwell / elapsed) and closes
        // the frame's "queue" trace span.
        const size_t in_flight = ms.submit_times.size() - ms.queue.size();
        wait_ms = ms_between(ms.submit_times[in_flight], claimed);
        ms.queue_wait_ms += wait_ms;
        ms.queue_depth_gauge->set(
            ms.queue_wait_ms /
            std::max(ms_between(start_time_, claimed), 1e-6));
        frames[m] = std::move(ms.queue.front());
        ms.queue.pop_front();
        if (trace_->enabled()) {
          char args[48];
          std::snprintf(args, sizeof args, "\"dwell_ms\":%.3f", wait_ms);
          trace_->async_end("queue", ms.trace_id, frames[m].sequence, args);
        }
      } else {
        Slot& in = ms.slots[stage - 1];
        wait_ms = ms_between(in.deposited, claimed);
        frames[m] = std::move(*in.frame);
        in.frame.reset();  // input buffer becomes free (Fig. 6)
      }
      ms.stage_metrics[stage].wait_ms->record(wait_ms);
      seqs[m] = frames[m].sequence;
    }
    if (job.engine && trace_->enabled()) {
      // One seat instant per gang member; the leader carries the batch
      // size, so trace accounting can be checked against
      // serve.arbiter.batch_size (tools/check_metrics --trace).
      const int64_t grant = grant_seq_++;
      char args[96];
      std::snprintf(args, sizeof args,
                    "\"role\":\"leader\",\"grant\":%lld,\"batch\":%zu",
                    static_cast<long long>(grant), nm);
      trace_->instant("gang", member_sessions[0]->trace_id, seqs[0], args);
      for (size_t m = 1; m < nm; ++m) {
        std::snprintf(args, sizeof args,
                      "\"role\":\"member\",\"grant\":%lld",
                      static_cast<long long>(grant));
        trace_->instant("gang", member_sessions[m]->trace_id, seqs[m], args);
      }
    }
    lock.unlock();
    cv_.notify_all();  // freed queue space / input slots enable upstream
    const auto t0 = std::chrono::steady_clock::now();

    // The leader's callback runs the whole gang: one engine hold, one
    // weight-streaming phase. A throw faults every member — their frames
    // were in the same pass.
    Session& ls = *member_sessions[0];
    const auto lstage_index = static_cast<size_t>(job.members[0].stage);
    const ServeStage& lstage = ls.cfg.stages[lstage_index];
    std::optional<std::string> fault;
    bool frame_began = true;  // false once a source pull has thrown
    if (lstage_index == 0 && ls.cfg.source) {
      // Engine-free by validation, so never a gang: one member.
      fault = guarded([&] { frames[0] = ls.cfg.source(); });
      frame_began = !fault;
      seqs[0] = frames[0].sequence;
      if (frame_began && trace_->enabled())
        trace_->async_begin("frame", ls.trace_id, seqs[0]);
    }
    if (!fault) {
      // Deep spans (net.layer, fabric, gemm) inherit the leader's frame
      // identity through the thread-local context.
      telemetry::ScopedTraceContext tctx(ls.trace_id, seqs[0]);
      telemetry::TraceSpan span(trace_, ls.stage_trace_names[lstage_index],
                                ls.trace_id, seqs[0]);
      if (span.active()) {
        char args[32];
        std::snprintf(args, sizeof args, "\"batch\":%zu", nm);
        span.set_args(args);
      }
      fault = guarded([&] {
        if (nm > 1 || !lstage.work) {
          std::vector<video::Frame*> ptrs(nm);
          for (size_t m = 0; m < nm; ++m) ptrs[m] = &frames[m];
          lstage.batch_work(std::span<video::Frame* const>(ptrs));
        } else {
          lstage.work(frames[0]);
        }
      });
    }
    const double busy_ms = ms_between(t0, std::chrono::steady_clock::now());
    std::vector<std::optional<std::string>> member_fault(nm, fault);
    // Delivery happens outside the lock but is serialized per session by
    // the reserved last-stage slot, so results leave in order. A sibling
    // stage may have poisoned a session while its frame was in the
    // stage; nothing is delivered past the poison point.
    for (size_t m = 0; m < nm; ++m) {
      Session& ms = *member_sessions[m];
      const auto stage = static_cast<size_t>(job.members[m].stage);
      ms.stage_metrics[stage].busy_ms->record(busy_ms);
      if (member_fault[m]) continue;
      const bool last = stage == ms.cfg.stages.size() - 1;
      if (!last || !ms.cfg.deliver) continue;
      lock.lock();
      const bool deliverable = !ms.quarantined;
      lock.unlock();
      if (!deliverable) continue;
      telemetry::TraceSpan deliver_span(trace_, "deliver", ms.trace_id,
                                        seqs[m]);
      member_fault[m] =
          guarded([&] { ms.cfg.deliver(std::move(frames[m])); });
    }
    // One release covers the whole gang (the leader held the engine).
    if (job.engine) arbiter_.release(job.members[0].session);

    lock.lock();
    const auto done = std::chrono::steady_clock::now();
    bool drained = false;  // a member session has nothing left to run
    for (size_t m = 0; m < nm; ++m) {
      Session& ms = *member_sessions[m];
      const int64_t session = job.members[m].session;
      const auto stage = static_cast<size_t>(job.members[m].stage);
      Slot& out = ms.slots[stage];
      out.reserved = false;
      const bool last = stage == ms.cfg.stages.size() - 1;
      if (member_fault[m]) {
        if (trace_->enabled() && (m > 0 || frame_began))
          trace_->async_end("frame", ms.trace_id, seqs[m],
                            "\"outcome\":\"fault\"");
        quarantine_locked(session, *member_fault[m]);
        ++ms.discarded;  // the frame this worker was carrying
        ms.dropped_counter->add(1);
      } else if (ms.quarantined) {
        if (trace_->enabled())
          trace_->async_end("frame", ms.trace_id, seqs[m],
                            "\"outcome\":\"dropped\"");
        ++ms.discarded;  // poisoned while in flight — never counted delivered
        ms.dropped_counter->add(1);
      } else if (last) {
        ++ms.done;
        ms.frames_counter->add(1);
        const double latency_ms = ms_between(ms.submit_times.front(), done);
        ms.latency_hist->record(latency_ms);
        ms.latency_window->record(latency_ms);
        ms.fps_gauge->set(static_cast<double>(ms.done) * 1000.0 /
                          std::max(ms_between(start_time_, done), 1e-6));
        ms.fps_window->add(1);
        ms.submit_times.pop_front();
        if (trace_->enabled())
          trace_->async_end("frame", ms.trace_id, seqs[m],
                            "\"outcome\":\"delivered\"");
      } else {
        out.frame = std::move(frames[m]);
        out.deposited = done;
      }
      if (ms.closed || ms.quarantined) maybe_retire_locked(session);
      drained |= ms.done + ms.discarded == ms.admitted && ms.pull_budget == 0;
    }
    lock.unlock();
    cv_.notify_all();  // deposited outputs enable downstream stages
    if (drained) drained_cv_.notify_all();
    lock.lock();
  }
}

void StreamServer::trace_drop_owned_locked(const Session& s,
                                           const char* outcome) {
  if (!trace_->enabled()) return;
  char args[48];
  std::snprintf(args, sizeof args, "\"outcome\":\"%s\"", outcome);
  for (const auto& f : s.queue) {
    trace_->async_end("queue", s.trace_id, f.sequence);
    trace_->async_end("frame", s.trace_id, f.sequence, args);
  }
  for (const auto& slot : s.slots)
    if (slot.frame.has_value())
      trace_->async_end("frame", s.trace_id, slot.frame->sequence, args);
}

void StreamServer::flight_record_locked(const Session& s, int64_t session,
                                        const std::string& what) {
  if (options_.flight_recorder_dir.empty()) return;
  std::string header = "\"schema\":\"tincy.flight.v1\",\"session\":";
  header += std::to_string(session);
  header += ",\"sessionName\":\"";
  header += s.cfg.name;  // normalized at open_session: JSON-safe
  header += "\",\"fault\":";
  // Escape the fault message: it is free-form exception text.
  header += '"';
  for (const char c : what) {
    switch (c) {
      case '"': header += "\\\""; break;
      case '\\': header += "\\\\"; break;
      case '\n': header += "\\n"; break;
      case '\t': header += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          header += buf;
        } else {
          header += c;
        }
    }
  }
  header += '"';
  const auto tail = trace_->session_tail(
      s.trace_id, static_cast<size_t>(options_.flight_recorder_events));
  try {
    std::filesystem::create_directories(options_.flight_recorder_dir);
    const std::string path =
        options_.flight_recorder_dir + "/flight_" + s.cfg.name + ".json";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file.good()) return;  // post-mortem must never take the server down
    const std::string json = telemetry::to_chrome_trace(tail, header);
    file.write(json.data(), static_cast<std::streamsize>(json.size()));
  } catch (...) {
    // I/O trouble while writing a post-mortem is not a serving fault.
  }
}

void StreamServer::quarantine_locked(int64_t session,
                                     const std::string& what) {
  Session& s = *sessions_[static_cast<size_t>(session)];
  s.faults_counter->add(1);
  if (s.quarantined) return;  // concurrent faults: first one poisons
  s.quarantined = true;
  s.last_fault = what;
  s.quarantined_gauge->set(1.0);
  s.pull_budget = 0;
  trace_drop_owned_locked(s, "dropped");
  if (trace_->enabled())
    trace_->instant("quarantine", s.trace_id, -1);
  // The post-mortem is cut before the owned frames are cleared so their
  // final events are part of the dump.
  flight_record_locked(s, session, what);
  // Everything this session still owns is discarded: queued frames, slot
  // deposits, and the timestamps tracking them. Frames currently inside a
  // stage of another worker are discarded by that worker on return.
  int64_t dropped = static_cast<int64_t>(s.queue.size());
  s.queue.clear();
  for (auto& slot : s.slots) {
    if (!slot.frame.has_value()) continue;
    slot.frame.reset();
    ++dropped;
  }
  s.submit_times.clear();
  if (dropped > 0) {
    s.discarded += dropped;
    s.dropped_counter->add(dropped);
  }
  arbiter_.cancel(session);
}

void StreamServer::maybe_retire_locked(int64_t session) {
  Session& s = *sessions_[static_cast<size_t>(session)];
  if (s.retired || !(s.closed || s.quarantined)) return;
  if (!s.queue.empty()) return;
  for (const auto& slot : s.slots)
    if (slot.frame.has_value() || slot.reserved) return;
  // No slot is reserved, so no stage of this session is running and the
  // engine release (which precedes clearing the reservation) has happened:
  // the arbiter can forget the session safely — and with it any pending
  // (session, layer) gang-queue entry, so a retired session never joins a
  // forming batch.
  s.retired = true;
  arbiter_.remove_session(session);
}

void StreamServer::reset_session_locked(Session& s) {
  s.queue.clear();
  s.submit_times.clear();
  s.slots.assign(s.cfg.stages.size(), Slot{});
  s.admitted = 0;
  s.done = 0;
  s.discarded = 0;
  s.closed = false;
  s.quarantined = false;
  s.retired = false;
  s.last_fault.clear();
  s.pull_budget = 0;
  s.queue_wait_ms = 0.0;
  s.engine_wait_start_ms = -1.0;
  for (auto& sm : s.stage_metrics) {
    sm.busy_ms->reset();
    sm.wait_ms->reset();
  }
  s.frames_counter->reset();
  s.latency_hist->reset();
  s.latency_window->reset();
  s.fps_gauge->set(0.0);
  s.fps_window->reset();
  s.queue_depth_gauge->set(0.0);
  s.rejected_counter->reset();
  s.shed_counter->reset();
  s.degraded_counter->reset();
  s.dropped_counter->reset();
  s.faults_counter->reset();
  s.quarantined_gauge->set(0.0);
}

void StreamServer::drain() {
  std::unique_lock lock(mutex_);
  drained_cv_.wait(lock, [&] {
    if (stopping_ || !running_) return true;
    for (const auto& s : sessions_)
      if (s->done + s->discarded != s->admitted || s->pull_budget > 0)
        return false;
    return true;
  });
}

void StreamServer::stop() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    to_join.swap(workers_);
  }
  cv_.notify_all();
  drained_cv_.notify_all();
  // Joining guarantees in-flight stages finished their buffer handoff
  // (workers only exit at the scheduler wait point) before session state
  // is touched below or the server is destroyed.
  for (auto& t : to_join) t.join();
  {
    std::lock_guard lock(mutex_);
    running_ = false;
    for (size_t i = 0; i < sessions_.size(); ++i)
      arbiter_.cancel(static_cast<int64_t>(i));
  }
  cv_.notify_all();
}

bool StreamServer::running() const {
  std::lock_guard lock(mutex_);
  return running_ && !stopping_;
}

int64_t StreamServer::num_sessions() const {
  std::lock_guard lock(mutex_);
  return static_cast<int64_t>(sessions_.size());
}

StreamServer::Session& StreamServer::session_locked(int64_t session) const {
  TINCY_CHECK_MSG(
      session >= 0 && session < static_cast<int64_t>(sessions_.size()),
      "unknown session " << session);
  return *sessions_[static_cast<size_t>(session)];
}

int64_t StreamServer::queue_depth(int64_t session) const {
  std::lock_guard lock(mutex_);
  return static_cast<int64_t>(session_locked(session).queue.size());
}

int64_t StreamServer::delivered(int64_t session) const {
  std::lock_guard lock(mutex_);
  return session_locked(session).done;
}

int64_t StreamServer::rejected(int64_t session) const {
  std::lock_guard lock(mutex_);
  return session_locked(session).rejected_counter->value();
}

bool StreamServer::closed(int64_t session) const {
  std::lock_guard lock(mutex_);
  return session_locked(session).closed;
}

bool StreamServer::quarantined(int64_t session) const {
  std::lock_guard lock(mutex_);
  return session_locked(session).quarantined;
}

std::string StreamServer::fault_message(int64_t session) const {
  std::lock_guard lock(mutex_);
  return session_locked(session).last_fault;
}

}  // namespace tincy::serve
