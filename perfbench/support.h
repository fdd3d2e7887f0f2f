// Measurement support for the crnkit benchmark program: clocks and summary
// statistics, the metric sink that becomes the result line, peak-RSS and
// host probes, the benchmark-side span recorder of traced runs, and the
// line-JSON TCP client the serve workloads drive `svc::Server` with.
#ifndef CRNKIT_PERFBENCH_SUPPORT_H_
#define CRNKIT_PERFBENCH_SUPPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

/// p99 from 1000 samples on; below that the highest percentile with ten
/// samples beyond it, and the maximum below 100 samples. The result
/// names the percentile it took ("p99", "p86", ..., "max").
std::pair<double, std::string> tail(const std::vector<double>& v);

double sum(const std::vector<double>& v);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

std::string cpu_model();

/// Ordered name -> (value, unit) sink. Adding a name twice throws: the
/// result line must print every metric exactly once.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds `<name>.p50` and `<name>.tail` over `samples`, in seconds.
  void add_timing(const std::string& name, const std::vector<double>& samples);
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// One recorded span: benchmark spans carry ids and parent links; spans
/// imported from the program's own obs::Tracer carry its thread id and
/// are nested by time containment instead.
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by one request's spans; 0 = none
  std::int64_t tid = 0;
  bool program = false;       ///< emitted inside src/ (obs::Tracer)
  std::vector<std::pair<std::string, std::int64_t>> args;  ///< program spans

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span store of a traced run. Disabled, a Span costs one
/// relaxed load; enabled, spans append under a mutex (traced runs only).
class Tracing {
 public:
  static Tracing& get();
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Nanoseconds on the steady clock (the base obs::Tracer also uses up
  /// to a constant offset, which import_program_trace() removes).
  static std::uint64_t now_ns();
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(SpanRecord span);
  /// Imports the events of obs::Tracer's current generation.
  void import_program_trace(std::uint64_t tracer_start_ns);
  /// Durations (seconds) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Sum of argument `key` over the spans named `name`.
  [[nodiscard]] double arg_sum(const std::string& name,
                               const std::string& key) const;
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Writes the spans as Chrome trace JSON and, beside it, the per-layer
  /// self-time table; returns the table as text.
  std::string write(const std::string& trace_path,
                    const std::string& table_path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII benchmark span. Nests under the innermost open span of the same
/// thread; `request` defaults to the parent's request id.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
  Span* outer_ = nullptr;
};

/// Blocking line-JSON client over one loopback TCP connection.
class LineClient {
 public:
  LineClient(const std::string& host, int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  std::string roundtrip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // CRNKIT_PERFBENCH_SUPPORT_H_
