#include "pamr/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>

#include "pamr/obs/registry.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr::obs {

namespace {

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<TraceSpan> spans;
};

struct TraceStore {
  std::mutex mutex;
  std::uint32_t next_tid = 0;
  std::vector<ThreadBuffer*> live;
  std::vector<TraceSpan> parked;  ///< local spans from exited/drained threads
  std::vector<TraceSpan> remote;  ///< spans filed by add_remote_spans
  std::map<std::uint32_t, std::string> labels;
};

TraceStore& store() {
  static TraceStore* s = new TraceStore();  // leaked: outlives late thread exits
  return *s;
}

struct BufferHolder {
  ThreadBuffer buffer;

  BufferHolder() {
    TraceStore& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    buffer.tid = s.next_tid++;
    s.live.push_back(&buffer);
  }

  ~BufferHolder() {
    TraceStore& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    for (TraceSpan& span : buffer.spans) s.parked.push_back(std::move(span));
    for (std::size_t i = 0; i < s.live.size(); ++i) {
      if (s.live[i] == &buffer) {
        s.live.erase(s.live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
};

ThreadBuffer& local_buffer() {
  thread_local BufferHolder holder;
  return holder.buffer;
}

std::atomic<bool>& trace_storage() noexcept {
  static std::atomic<bool> on{[] {
    const char* env = std::getenv("PAMR_OBS_TRACE");
    return env != nullptr && env[0] == '1' && env[1] == '\0';
  }()};
  return on;
}

// Wire escaping: keep the encoded span line-clean and separator-clean.
constexpr char kSep = '\x1f';

std::string escape_field(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case kSep: out += "\\u"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string unescape_field(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    ++i;
    switch (text[i]) {
      case '\\': out += '\\'; break;
      case 'u': out += kSep; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += text[i]; break;
    }
  }
  return out;
}

std::string format_ts_us(std::uint64_t ns) {
  // Microseconds with nanosecond decimals, exactly — no float formatting.
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buffer;
}

void append_event(std::vector<std::string>& lines, const char* ph, const TraceSpan& span,
                  std::uint64_t ts_ns, bool with_args) {
  std::string line = "{\"name\":\"";
  line += json_escape(span.name);
  line += "\",\"cat\":\"pamr\",\"ph\":\"";
  line += ph;
  line += "\",\"ts\":";
  line += format_ts_us(ts_ns);
  line += ",\"pid\":";
  line += std::to_string(span.pid);
  line += ",\"tid\":";
  line += std::to_string(span.tid);
  if (with_args && !span.args_json.empty()) {
    line += ",\"args\":";
    line += span.args_json;
  }
  line += "}";
  lines.push_back(std::move(line));
}

}  // namespace

bool trace_enabled() noexcept { return trace_storage().load(std::memory_order_relaxed); }

void set_trace_enabled(bool on) noexcept {
  trace_storage().store(on, std::memory_order_relaxed);
}

Span::Span(std::string name, std::string args_json) noexcept {
  if (!trace_enabled()) return;
  armed_ = true;
  name_ = std::move(name);
  args_ = std::move(args_json);
  start_ = now_ns();
}

Span::~Span() {
  if (!armed_) return;
  record_span(std::move(name_), std::move(args_), start_, now_ns());
}

void record_span(std::string name, std::string args_json, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  if (!trace_enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  TraceSpan span;
  span.name = std::move(name);
  span.args_json = std::move(args_json);
  span.tid = buffer.tid;
  span.start_ns = start_ns;
  span.end_ns = end_ns < start_ns ? start_ns : end_ns;
  buffer.spans.push_back(std::move(span));
}

std::vector<TraceSpan> drain_spans() {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<TraceSpan> out = std::move(s.parked);
  s.parked.clear();
  for (ThreadBuffer* buffer : s.live) {
    for (TraceSpan& span : buffer->spans) out.push_back(std::move(span));
    buffer->spans.clear();
  }
  return out;
}

void add_remote_spans(std::uint32_t pid, std::vector<TraceSpan> spans) {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (TraceSpan& span : spans) {
    span.pid = pid;
    s.remote.push_back(std::move(span));
  }
}

void set_process_label(std::uint32_t pid, std::string label) {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.labels[pid] = std::move(label);
}

void clear_trace() {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (ThreadBuffer* buffer : s.live) buffer->spans.clear();
  s.parked.clear();
  s.remote.clear();
  s.labels.clear();
}

bool write_trace(const std::string& path, std::string& error) {
  // Collect without draining, so writing twice (or writing after a partial
  // drain in the dist coordinator) stays safe.
  std::vector<TraceSpan> spans;
  std::map<std::uint32_t, std::string> labels;
  {
    TraceStore& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    spans.reserve(s.parked.size() + s.remote.size());
    for (const TraceSpan& span : s.parked) spans.push_back(span);
    for (ThreadBuffer* buffer : s.live) {
      for (const TraceSpan& span : buffer->spans) spans.push_back(span);
    }
    for (const TraceSpan& span : s.remote) spans.push_back(span);
    labels = s.labels;
  }

  // Group per (pid, tid) lane; lanes are independent stacks.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<TraceSpan>> lanes;
  for (TraceSpan& span : spans) {
    lanes[{span.pid, span.tid}].push_back(std::move(span));
  }

  std::vector<std::string> lines;

  // Process-name metadata first: one lane label per pid that has spans.
  std::map<std::uint32_t, std::string> pid_labels;
  for (const auto& [key, lane] : lanes) {
    (void)lane;
    const auto it = labels.find(key.first);
    pid_labels[key.first] =
        it != labels.end() ? it->second : "process " + std::to_string(key.first);
  }
  for (const auto& [pid, label] : pid_labels) {
    lines.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                    std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
                    json_escape(label) + "\"}}");
  }

  for (auto& [key, lane] : lanes) {
    (void)key;
    std::stable_sort(lane.begin(), lane.end(),
                     [](const TraceSpan& a, const TraceSpan& b) {
                       if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                       if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
                       return a.name < b.name;
                     });
    std::vector<const TraceSpan*> stack;
    for (TraceSpan& span : lane) {
      while (!stack.empty() && stack.back()->end_ns <= span.start_ns) {
        append_event(lines, "E", *stack.back(), stack.back()->end_ns, false);
        stack.pop_back();
      }
      // RAII spans on one thread nest by construction; clamp defensively so
      // a clock oddity can never produce an improperly nested pair.
      if (!stack.empty() && span.end_ns > stack.back()->end_ns) {
        span.end_ns = stack.back()->end_ns;
      }
      append_event(lines, "B", span, span.start_ns, true);
      stack.push_back(&span);
    }
    while (!stack.empty()) {
      append_event(lines, "E", *stack.back(), stack.back()->end_ns, false);
      stack.pop_back();
    }
  }

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    error = "cannot open '" + path + "' for writing";
    return false;
  }
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    file << lines[i];
    if (i + 1 < lines.size()) file << ',';
    file << '\n';
  }
  file << "]}\n";
  file.close();
  if (!file) {
    error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

std::string encode_span(const TraceSpan& span) {
  std::string out = escape_field(span.name);
  out += kSep;
  out += escape_field(span.args_json);
  out += kSep;
  out += std::to_string(span.tid);
  out += kSep;
  out += std::to_string(span.start_ns);
  out += kSep;
  out += std::to_string(span.end_ns);
  return out;
}

bool decode_span(std::string_view text, TraceSpan& out) {
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    // Split on unescaped separators only (escaped ones are "\\u").
    if (i == text.size() || text[i] == kSep) {
      parts.push_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  if (parts.size() != 5) return false;
  std::int64_t tid = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  if (!parse_int64(parts[2], tid) || !parse_int64(parts[3], start) ||
      !parse_int64(parts[4], end) || tid < 0 || start < 0 || end < start) {
    return false;
  }
  out.name = unescape_field(parts[0]);
  out.args_json = unescape_field(parts[1]);
  out.pid = 0;
  out.tid = static_cast<std::uint32_t>(tid);
  out.start_ns = static_cast<std::uint64_t>(start);
  out.end_ns = static_cast<std::uint64_t>(end);
  return true;
}

}  // namespace pamr::obs
