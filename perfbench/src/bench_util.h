// Shared plumbing for the end-to-end benchmark: clocks, order statistics,
// resident-set readings, the benchmark's own span recorder, a minimal
// loopback HTTP client, a CSV splitter and the result printer.
//
// Nothing here calls into the engine: the spans are the benchmark's own,
// recorded around each call it makes into a layer, so a traced run measures
// the same program as an untraced one.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MsSince(Clock::time_point t0) {
  return SecondsSince(t0) * 1e3;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an
/// empty one.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v);

/// Current and peak resident set of this process, in MiB.
double CurrentRssMb();
double PeakRssMb();

/// CPU time (user + system) this process has used, in seconds. Unlike wall
/// time it does not grow when the hypervisor runs other guests on our CPUs.
double ProcessCpuSeconds();

/// Share of all CPU time, in percent, that the hypervisor spent running
/// other guests on this machine's CPUs since `since` (a previous reading).
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
double StealPct(const CpuTimes& since);

/// Number of online CPUs; every parallel query runs at this many threads and
/// the load never uses more client threads than this.
int NumCpus();

// ---------------------------------------------------------------------------
// Span recorder

struct SpanRecord {
  const char* name;  // a string literal
  uint32_t thread;
  int64_t start_ns;
  int64_t end_ns;
  int64_t value;  // one attribute: rows, windows rebuilt or a query class
};

/// In-memory recorder for the benchmark's spans. Each thread appends to its
/// own buffer; the traced run computes its per-layer figures from the spans
/// and writes them to a file at the end.
class Tracer {
 public:
  static Tracer& Get();

  /// Recording is on only while both the run is traced and the calling
  /// thread's current round is a traced one. Traced runs alternate traced
  /// and untraced rounds per thread, which gives the tracing overhead.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  static void SetThreadRoundTraced(bool on);

  void Record(const char* name, int64_t start_ns, int64_t value);

  /// Wall milliseconds of the spans named `name` (with `value`, when it is
  /// not negative), in the order each thread recorded them. Call these once
  /// the threads that record spans have finished.
  std::vector<double> Ms(const char* name, int64_t value = -1) const;
  /// The values of the spans named `name`.
  std::vector<double> Values(const char* name) const;
  size_t num_spans() const;

  /// Writes one JSON object per span to `path`.
  bool Dump(const std::string& path) const;

 private:
  struct ThreadBuf {
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  ThreadBuf* Local();
  std::vector<const SpanRecord*> Find(const char* name) const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span around one call into a layer. Costs one relaxed load when the
/// recorder is off.
class Span {
 public:
  explicit Span(const char* name, int64_t value = 0);
  ~Span();
  void set_value(int64_t v) { value_ = v; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool on_ = false;
  int64_t start_ns_ = 0;
  int64_t value_;
};

// ---------------------------------------------------------------------------
// Loopback HTTP client (one request per connection; the server closes)

struct HttpReply {
  int status = 0;  // 0 = transport error
  std::string body;
  std::string error;
};

HttpReply HttpRequest(int port, const std::string& method,
                      const std::string& target,
                      const std::string& body = "");

std::string UrlEncode(const std::string& s);

// ---------------------------------------------------------------------------
// CSV and text helpers (the benchmark's own, independent of table/csv)

/// Splits unquoted CSV text into rows of fields; drops the header line when
/// asked. Fields never contain commas, quotes or newlines in this benchmark's
/// data, so a quoted field is reported as a parse failure.
bool SplitCsv(const std::string& text, bool skip_header,
              std::vector<std::vector<std::string>>* rows);

// ---------------------------------------------------------------------------
// Results

/// Attempted/failed counts of one operation type.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a run reports. Attempt() and Mismatch() may be called from several
/// client threads at once.
struct RunResult {
  bool correct = true;
  std::map<std::string, OpCount> ops;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> info;  // printed before the result line
  std::vector<std::string> notes;  // check failures, printed to stderr
  std::mutex mu;

  void Attempt(const std::string& op, bool ok) {
    std::lock_guard<std::mutex> lock(mu);
    OpCount& c = ops[op];
    ++c.attempted;
    if (!ok) ++c.failed;
  }
  /// A check on an answer that was returned: a mismatch fails the operation
  /// and marks the run incorrect.
  void Mismatch(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    correct = false;
    if (notes.size() < 20) notes.push_back(what);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Info(const std::string& name, double value, const std::string& unit) {
    info[name] = Metric{value, unit};
  }
};

/// Prints the per-operation table, then the one-line JSON result, last.
void PrintResult(const RunResult& r);

/// Options every workload receives.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its span file
};

/// Thread-safe accumulator for latency samples.
class Samples {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    v_.push_back(v);
  }
  std::vector<double> Take() const {
    std::lock_guard<std::mutex> lock(mu_);
    return v_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> v_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
