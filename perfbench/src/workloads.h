// The benchmark's four workloads. Each runs in a process of its own, fills
// in the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run), and counts every operation it attempts. A false return means set-up
// failed and no result can be printed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

bool RunCubeNarrow(const RunOptions& opts, RunResult* result);
bool RunCubeWide(const RunOptions& opts, RunResult* result);
bool RunSqlServe(const RunOptions& opts, RunResult* result);
bool RunIngestStream(const RunOptions& opts, RunResult* result);

/// Times repetitions of a workload's set-up, in CPU seconds. A run sets up
/// once before its timed loop, keeping the state the last repetition built,
/// and once more after it (untraced runs): the host's speed drifts over
/// seconds, and set-up times sampled at both ends of the run follow that
/// drift less than times sampled in one stretch before the loop.
class SetupTimer {
 public:
  /// Runs `teardown` (outside the measured time) and `setup`, `reps` times.
  template <typename T, typename F>
  bool Repeat(int reps, T teardown, F setup) {
    for (int i = 0; i < reps; ++i) {
      teardown();
      double t0 = ProcessCpuSeconds();
      if (!setup()) return false;
      secs_.push_back(ProcessCpuSeconds() - t0);
    }
    return true;
  }
  double MedianSeconds() const { return Median(secs_); }

 private:
  std::vector<double> secs_;
};

/// What every workload reports besides its per-layer figures.
struct Figures {
  double setup_cpu_s = 0;   // median CPU seconds of one set-up
  double peak_rss_mb = 0;   // read before the set-ups after the loop
  double cpu_ms_per_op = 0; // process CPU per operation of the timed loop
  double rows_per_s = 0;    // wall-clock figures of the timed loop
  double qps = 0;
  double query_p50_ms = 0;  // median latency of the workload's queries
  double steal_pct = 0;     // CPU time the hypervisor gave to other guests
};

/// Untraced run: the gated end-to-end metrics (setup_s, peak_rss_mb,
/// cpu_ms_per_op, query_p50_ms), with the other wall-clock figures printed
/// as information. Traced run: the wall-clock figures as wall.* metrics.
void ReportFigures(const RunOptions& opts, const Figures& f,
                   RunResult* result);

/// Calls `fn` (which returns whether the call succeeded) inside a span named
/// `span` with value `value`, and returns its result.
template <typename F>
bool InSpan(const char* span, int64_t value, F&& fn) {
  Span s(span, value);
  return fn();
}

/// Percentage by which traced work took longer than untraced work.
inline double OverheadPct(const std::vector<double>& traced,
                          const std::vector<double>& untraced) {
  double u = Median(untraced);
  return u > 0 ? (Median(traced) / u - 1.0) * 100.0 : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
