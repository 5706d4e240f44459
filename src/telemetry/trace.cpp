#include "telemetry/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/errors.hpp"

namespace tincy::telemetry {

namespace {

/// Each ring slot holds one TraceEvent as a run of atomic words; copying
/// word-by-word keeps concurrent reader/writer accesses data-race-free.
constexpr size_t kWordsPerSlot = (sizeof(TraceEvent) + 7) / 8;

uint64_t next_instance_id() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void copy_bounded(char* dst, size_t cap, std::string_view src) {
  const size_t n = std::min(src.size(), cap - 1);
  // An empty string_view may hold a null data(), which memcpy must not see.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

int64_t trace_arg_int(const TraceEvent& event, std::string_view key,
                      int64_t fallback) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern += "\":";
  const std::string_view args = event.args_view();
  const size_t pos = args.find(pattern);
  if (pos == std::string_view::npos) return fallback;
  const char* p = event.args + pos + pattern.size();
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  return end == p ? fallback : static_cast<int64_t>(v);
}

std::string trace_arg_str(const TraceEvent& event, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern += "\":\"";
  const std::string_view args = event.args_view();
  const size_t pos = args.find(pattern);
  if (pos == std::string_view::npos) return {};
  const size_t start = pos + pattern.size();
  const size_t stop = args.find('"', start);
  if (stop == std::string_view::npos) return {};
  return std::string(args.substr(start, stop - start));
}

TraceContext& current_trace_context() {
  thread_local TraceContext ctx;
  return ctx;
}

/// One emitting thread's ring. `head` counts events ever written; the
/// writer (owning thread only) stores the slot's words relaxed and then
/// publishes with a release store of head. `floor` is the reset
/// watermark: events below it are logically discarded.
struct TraceCollector::Buffer {
  Buffer(int64_t capacity, int32_t tid_in)
      : tid(tid_in),
        capacity(capacity),
        words(std::make_unique<std::atomic<uint64_t>[]>(
            static_cast<size_t>(capacity) * kWordsPerSlot)) {}

  const int32_t tid;
  const int64_t capacity;
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> floor{0};
  std::unique_ptr<std::atomic<uint64_t>[]> words;
};

TraceCollector::TraceCollector(int64_t capacity_per_thread)
    : capacity_(capacity_per_thread > 0 ? capacity_per_thread : 1),
      instance_id_(next_instance_id()),
      epoch_(std::chrono::steady_clock::now()) {}

TraceCollector::~TraceCollector() = default;

TraceCollector& TraceCollector::global() {
  // Deliberately leaked: worker threads may still emit during static
  // destruction, so the process-wide collector must never be destroyed.
  static TraceCollector& instance = *new TraceCollector();
  return instance;
}

double TraceCollector::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceCollector::Buffer* TraceCollector::buffer_for_this_thread() {
  struct CacheEntry {
    const TraceCollector* collector;
    uint64_t instance;
    Buffer* buffer;
  };
  // Entries are matched by pointer AND instance id, so a dead collector's
  // entry can never alias a new collector reusing the same address.
  thread_local std::vector<CacheEntry> cache;
  for (const auto& entry : cache)
    if (entry.collector == this && entry.instance == instance_id_)
      return entry.buffer;
  std::lock_guard lock(register_mutex_);
  auto buffer =
      std::make_unique<Buffer>(capacity_, static_cast<int32_t>(buffers_.size()));
  Buffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  cache.push_back({this, instance_id_, raw});
  return raw;
}

void TraceCollector::emit(TracePhase phase, std::string_view name,
                          int64_t session, int64_t frame,
                          std::string_view args, double dur_ms, double ts_ms) {
  if (!enabled()) return;
  Buffer* buf = buffer_for_this_thread();
  TraceEvent ev;
  ev.ts_ms = ts_ms < 0.0 ? now_ms() : ts_ms;
  ev.dur_ms = dur_ms;
  ev.session = session;
  ev.frame = frame;
  ev.tid = buf->tid;
  ev.phase = phase;
  copy_bounded(ev.name, sizeof ev.name, name);
  copy_bounded(ev.args, sizeof ev.args, args);

  uint64_t encoded[kWordsPerSlot] = {};
  std::memcpy(encoded, &ev, sizeof ev);
  const uint64_t h = buf->head.load(std::memory_order_relaxed);
  std::atomic<uint64_t>* slot =
      buf->words.get() +
      (h % static_cast<uint64_t>(buf->capacity)) * kWordsPerSlot;
  for (size_t i = 0; i < kWordsPerSlot; ++i)
    slot[i].store(encoded[i], std::memory_order_relaxed);
  buf->head.store(h + 1, std::memory_order_release);
}

void TraceCollector::read_buffer(const Buffer& buf,
                                 std::vector<TraceEvent>& out) const {
  const uint64_t cap = static_cast<uint64_t>(buf.capacity);
  const uint64_t head = buf.head.load(std::memory_order_acquire);
  uint64_t lo = buf.floor.load(std::memory_order_relaxed);
  if (head > cap && head - cap > lo) lo = head - cap;
  for (uint64_t u = lo; u < head; ++u) {
    const std::atomic<uint64_t>* slot =
        buf.words.get() + (u % cap) * kWordsPerSlot;
    uint64_t encoded[kWordsPerSlot];
    for (size_t i = 0; i < kWordsPerSlot; ++i)
      encoded[i] = slot[i].load(std::memory_order_relaxed);
    // The writer may have started overwriting this slot (its entry u+cap)
    // while we copied; in that case the copy may be torn — drop it.
    const uint64_t head_now = buf.head.load(std::memory_order_acquire);
    if (head_now >= u + cap) continue;
    TraceEvent ev;
    std::memcpy(&ev, encoded, sizeof ev);
    ev.name[sizeof ev.name - 1] = '\0';
    ev.args[sizeof ev.args - 1] = '\0';
    out.push_back(ev);
  }
}

std::vector<TraceEvent> TraceCollector::snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard lock(register_mutex_);
    for (const auto& buf : buffers_) read_buffer(*buf, out);
  }
  // Enclosing spans sort before the spans they contain.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_ms != b.ts_ms) return a.ts_ms < b.ts_ms;
                     return a.dur_ms > b.dur_ms;
                   });
  return out;
}

std::vector<TraceEvent> TraceCollector::session_tail(int64_t session,
                                                     size_t max_events) const {
  std::vector<TraceEvent> all = snapshot();
  std::vector<TraceEvent> filtered;
  for (const auto& ev : all)
    if (ev.session == session) filtered.push_back(ev);
  if (filtered.size() > max_events)
    filtered.erase(filtered.begin(),
                   filtered.end() - static_cast<ptrdiff_t>(max_events));
  return filtered;
}

void TraceCollector::reset() {
  std::lock_guard lock(register_mutex_);
  for (const auto& buf : buffers_)
    buf->floor.store(buf->head.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
}

TraceSpan::TraceSpan(TraceCollector* collector, std::string_view name,
                     int64_t session, int64_t frame) {
  if (collector == nullptr || !collector->enabled()) return;
  collector_ = collector;
  start_ms_ = collector->now_ms();
  session_ = session;
  frame_ = frame;
  copy_bounded(name_, sizeof name_, name);
}

TraceSpan::~TraceSpan() {
  if (collector_ == nullptr) return;
  collector_->emit(TracePhase::kComplete, name_, session_, frame_, args_,
                   collector_->now_ms() - start_ms_, start_ms_);
}

void TraceSpan::set_args(std::string_view args) {
  if (collector_ == nullptr) return;
  copy_bounded(args_, sizeof args_, args);
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_us(std::string& out, double ms) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", ms * 1000.0);
  out += buf;
}

const char* phase_letter(TracePhase phase) {
  switch (phase) {
    case TracePhase::kComplete: return "X";
    case TracePhase::kInstant: return "i";
    case TracePhase::kAsyncBegin: return "b";
    case TracePhase::kAsyncEnd: return "e";
  }
  return "i";
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::string_view header_fields) {
  std::string out;
  out.reserve(events.size() * 180 + 64);
  out += '{';
  if (!header_fields.empty()) {
    out += header_fields;
    out += ',';
  }
  out += "\"traceEvents\":[";
  char buf[96];
  bool first = true;
  for (const auto& ev : events) {
    if (!first) out += ',';
    first = false;
    const bool is_async = ev.phase == TracePhase::kAsyncBegin ||
                          ev.phase == TracePhase::kAsyncEnd;
    out += "{\"name\":";
    append_escaped(out, ev.name_view());
    out += ",\"cat\":\"";
    out += is_async ? "frame" : "tincy";
    out += "\",\"ph\":\"";
    out += phase_letter(ev.phase);
    out += "\",\"ts\":";
    append_us(out, ev.ts_ms);
    if (ev.phase == TracePhase::kComplete) {
      out += ",\"dur\":";
      append_us(out, ev.dur_ms);
    }
    std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%" PRId32, ev.tid);
    out += buf;
    if (is_async) {
      std::snprintf(buf, sizeof buf, ",\"id\":\"s%" PRId64 ".f%" PRId64 "\"",
                    ev.session, ev.frame);
      out += buf;
    }
    out += ",\"args\":{";
    if (ev.args[0] != '\0') {
      out += ev.args_view();
      out += ',';
    }
    std::snprintf(buf, sizeof buf,
                  "\"session\":%" PRId64 ",\"frame\":%" PRId64 "}}", ev.session,
                  ev.frame);
    out += buf;
  }
  out += "]}";
  return out;
}

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  TINCY_CHECK_MSG(file.good(), "cannot open " << path << " for writing");
  const std::string json = to_chrome_trace(events);
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  file.flush();
  TINCY_CHECK_MSG(file.good(), "short write to " << path);
}

// ---------------------------------------------------------------------------
// Parser for the subset emitted above (tools/check_metrics --trace).

namespace {

class TraceParser {
 public:
  explicit TraceParser(const std::string& text) : text_(text) {}

  std::vector<TraceEvent> parse() {
    std::vector<TraceEvent> events;
    skip_ws();
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (consume('}')) break;
      if (!first) {
        // separators are consumed below; nothing to do
      }
      first = false;
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (key == "traceEvents") {
        parse_events(events);
      } else {
        skip_value();
      }
      skip_ws();
      consume(',');
    }
    return events;
  }

 private:
  void parse_events(std::vector<TraceEvent>& events) {
    expect('[');
    skip_ws();
    if (consume(']')) return;
    while (true) {
      events.push_back(parse_event());
      skip_ws();
      if (consume(']')) break;
      expect(',');
      skip_ws();
    }
  }

  TraceEvent parse_event() {
    TraceEvent ev;
    std::string args_fragment;
    skip_ws();
    expect('{');
    while (true) {
      skip_ws();
      if (consume('}')) break;
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (key == "name") {
        copy_bounded(ev.name, sizeof ev.name, parse_string());
      } else if (key == "ph") {
        const std::string ph = parse_string();
        if (ph == "X") ev.phase = TracePhase::kComplete;
        else if (ph == "i") ev.phase = TracePhase::kInstant;
        else if (ph == "b") ev.phase = TracePhase::kAsyncBegin;
        else if (ph == "e") ev.phase = TracePhase::kAsyncEnd;
        else fail("unsupported trace phase '" + ph + "'");
      } else if (key == "ts") {
        ev.ts_ms = parse_number() / 1000.0;
      } else if (key == "dur") {
        ev.dur_ms = parse_number() / 1000.0;
      } else if (key == "tid") {
        ev.tid = static_cast<int32_t>(parse_number());
      } else if (key == "args") {
        parse_args(ev, args_fragment);
      } else {
        skip_value();
      }
      skip_ws();
      consume(',');
    }
    copy_bounded(ev.args, sizeof ev.args, args_fragment);
    return ev;
  }

  void parse_args(TraceEvent& ev, std::string& fragment) {
    expect('{');
    while (true) {
      skip_ws();
      if (consume('}')) break;
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      const size_t start = pos_;
      skip_value();
      const std::string_view raw(text_.data() + start, pos_ - start);
      if (key == "session") {
        ev.session = static_cast<int64_t>(std::strtoll(
            std::string(raw).c_str(), nullptr, 10));
      } else if (key == "frame") {
        ev.frame = static_cast<int64_t>(std::strtoll(
            std::string(raw).c_str(), nullptr, 10));
      } else {
        if (!fragment.empty()) fragment += ',';
        fragment += '"';
        fragment += key;
        fragment += "\":";
        fragment.append(raw);
      }
      skip_ws();
      consume(',');
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c))
      fail(std::string("expected '") + c + "'");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        TINCY_CHECK_MSG(pos_ < text_.size(), "truncated escape in trace JSON");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            TINCY_CHECK_MSG(pos_ + 4 <= text_.size(),
                            "truncated \\u escape in trace JSON");
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
            break;
          }
          default:
            fail("unsupported escape in trace JSON");
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string in trace JSON");
    return out;
  }

  double parse_number() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    TINCY_CHECK_MSG(pos_ > start, "expected number in trace JSON");
    return std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
  }

  void skip_value() {
    skip_ws();
    TINCY_CHECK_MSG(pos_ < text_.size(), "truncated trace JSON");
    const char c = text_[pos_];
    if (c == '"') {
      parse_string();
    } else if (c == '{') {
      ++pos_;
      while (true) {
        skip_ws();
        if (consume('}')) return;
        parse_string();
        skip_ws();
        expect(':');
        skip_value();
        skip_ws();
        consume(',');
      }
    } else if (c == '[') {
      ++pos_;
      while (true) {
        skip_ws();
        if (consume(']')) return;
        skip_value();
        skip_ws();
        consume(',');
      }
    } else if (c == 't') {
      expect_word("true");
    } else if (c == 'f') {
      expect_word("false");
    } else if (c == 'n') {
      expect_word("null");
    } else {
      parse_number();
    }
  }

  void expect_word(const char* word) {
    const size_t len = std::strlen(word);
    TINCY_CHECK_MSG(text_.compare(pos_, len, word) == 0,
                    "malformed literal in trace JSON");
    pos_ += len;
  }

  [[noreturn]] void fail(const std::string& what) {
    throw Error("trace JSON parse error at byte " + std::to_string(pos_) +
                ": " + what);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<TraceEvent> parse_chrome_trace(const std::string& json) {
  return TraceParser(json).parse();
}

}  // namespace tincy::telemetry
