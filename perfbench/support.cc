#include "support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/trace.h"
#include "util/json_value.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::pair<double, std::string> tail(const std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n >= 1000) return {percentile(v, 0.99), "p99"};
  if (n >= 100) {
    // The highest percentile with ten samples beyond it.
    const double q = 1.0 - 10.0 / static_cast<double>(n);
    return {percentile(v, q), "p" + std::to_string(static_cast<int>(q * 100))};
  }
  return {n == 0 ? 0.0 : *std::max_element(v.begin(), v.end()), "max"};
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  for (const auto& entry : entries_) {
    if (entry.first == name) {
      throw std::logic_error("metric '" + name + "' reported twice");
    }
  }
  entries_.push_back({name, {value, unit}});
}

void Metrics::add_timing(const std::string& name,
                         const std::vector<double>& samples) {
  add(name + ".p50", median(samples), "s");
  add(name + ".tail", tail(samples).first, "s");
}

// ------------------------------------------------------------- tracing --

Tracing& Tracing::get() {
  static Tracing* tracing = new Tracing();
  return *tracing;
}

std::uint64_t Tracing::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

void Tracing::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracing::import_program_trace(std::uint64_t anchor_ns) {
  // The program's tracer stamps microseconds from its own epoch; the
  // "perfbench.anchor" span was opened at `anchor_ns` on our clock.
  const crnkit::util::JsonValue doc =
      crnkit::util::JsonValue::parse(crnkit::obs::Tracer::render_chrome_json());
  const auto& events = doc.get("traceEvents").items();
  double anchor_us = -1.0;
  for (const auto& e : events) {
    if (e.get("name").as_string() == "perfbench.anchor") {
      anchor_us = e.get("ts").as_double();
    }
  }
  if (anchor_us < 0) throw std::runtime_error("trace anchor span missing");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : events) {
    const std::string name = e.get("name").as_string();
    if (name == "perfbench.anchor") continue;
    SpanRecord span;
    span.name = name;
    const double ts_us = e.get("ts").as_double() - anchor_us;
    span.start_ns = anchor_ns + static_cast<std::uint64_t>(
                                    std::llround(std::max(0.0, ts_us) * 1e3));
    span.end_ns = span.start_ns + static_cast<std::uint64_t>(std::llround(
                                      e.get("dur").as_double() * 1e3));
    span.id = next_id();
    span.tid = e.get("tid").as_int();
    span.program = true;
    if (const auto* args = e.find("args")) {
      for (const auto& [key, value] : args->members()) {
        span.args.push_back({key, value.as_int()});
      }
    }
    spans_.push_back(std::move(span));
  }
}

std::vector<double> Tracing::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double Tracing::arg_sum(const std::string& name,
                        const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.args) {
      if (k == key) total += static_cast<double>(v);
    }
  }
  return total;
}

std::vector<SpanRecord> Tracing::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

/// Length of the union of [start, end) intervals clipped to `outer`.
std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
    const SpanRecord& outer) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = outer.start_ns;
  for (auto [a, b] : iv) {
    a = std::max(a, cursor);
    b = std::min(b, outer.end_ns);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

}  // namespace

std::string Tracing::write(const std::string& trace_path,
                           const std::string& table_path) const {
  const std::vector<SpanRecord> all = spans();

  // Self time: benchmark spans minus their child spans (parent links);
  // program spans minus the program spans they contain on their thread.
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  std::map<std::int64_t, std::vector<const SpanRecord*>> by_tid;
  for (const SpanRecord& s : all) {
    if (s.program) {
      by_tid[s.tid].push_back(&s);
    } else if (s.parent != 0) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
    bool program = false;
  };
  std::map<std::string, Row> table;
  const auto add_row = [&](const SpanRecord& s, std::uint64_t covered) {
    Row& row = table[s.name];
    ++row.count;
    row.total += s.seconds();
    row.self += s.seconds() - static_cast<double>(covered) * 1e-9;
    row.program = s.program;
  };
  for (const SpanRecord& s : all) {
    if (s.program) continue;
    const auto it = children.find(s.id);
    add_row(s, it == children.end() ? 0 : covered_ns(it->second, s));
  }
  // Program spans of one thread nest properly: after sorting by start
  // (outer first on ties), a span's descendants follow it directly.
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                  : a->end_ns > b->end_ns;
              });
    for (std::size_t i = 0; i < list.size(); ++i) {
      const SpanRecord& s = *list[i];
      std::vector<std::pair<std::uint64_t, std::uint64_t>> inner;
      for (std::size_t j = i + 1;
           j < list.size() && list[j]->start_ns < s.end_ns; ++j) {
        if (list[j]->end_ns <= s.end_ns) {
          inner.push_back({list[j]->start_ns, list[j]->end_ns});
        }
      }
      add_row(s, covered_ns(std::move(inner), s));
    }
  }

  std::ostringstream text;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-28s %-9s %8s %12s %12s\n", "span",
                "source", "count", "total_s", "self_s");
  text << buf;
  for (const auto& [name, row] : table) {
    std::snprintf(buf, sizeof(buf), "%-28s %-9s %8zu %12.6f %12.6f\n",
                  name.c_str(), row.program ? "program" : "benchmark",
                  row.count, row.total, row.self);
    text << buf;
  }
  std::ofstream(table_path, std::ios::trunc) << text.str();

  std::ofstream out(trace_path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write '" + trace_path + "'");
  std::uint64_t origin = UINT64_MAX;
  for (const SpanRecord& s : all) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& s : all) {
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
        "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
        "\"parent\": %llu, \"request\": %llu}}",
        first ? "" : ",", s.name.c_str(), s.program ? "program" : "benchmark",
        s.program ? 2 : 1, static_cast<long long>(s.tid),
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request));
    out << buf;
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return text.str();
}

namespace {
thread_local Span* t_open_span = nullptr;
std::atomic<std::int64_t> g_next_tid{0};
thread_local std::int64_t t_tid = -1;
}  // namespace

Span::Span(const char* name, std::uint64_t request) {
  Tracing& tracing = Tracing::get();
  if (!tracing.enabled()) return;
  active_ = true;
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  outer_ = t_open_span;
  record_.name = name;
  record_.id = tracing.next_id();
  record_.tid = t_tid;
  if (outer_ != nullptr) {
    record_.parent = outer_->record_.id;
    if (request == 0) request = outer_->record_.request;
  }
  record_.request = request;
  t_open_span = this;
  record_.start_ns = Tracing::now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = Tracing::now_ns();
  t_open_span = outer_;
  Tracing::get().record(std::move(record_));
}

// ---------------------------------------------------------- LineClient --

LineClient::LineClient(const std::string& host, int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineClient::roundtrip(const std::string& line) {
  const std::string out = line + "\n";
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<std::size_t>(n);
  }
  for (;;) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return response;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("connection closed mid-reply");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace perfbench
