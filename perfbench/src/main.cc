// The end-to-end benchmark program, built and run by perfbench/run.py.
//
//   perfbench --workload <cube_narrow|cube_wide|sql_serve|ingest_stream>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints one line per operation type (attempted, failed), then, as the last
// line of standard output, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). A traced run also writes
// its spans to <out-dir>/spans-<workload>-<seed>.jsonl. The exit status is 0
// only if every operation succeeded and every check passed.

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

void ReportFigures(const RunOptions& opts, const Figures& f,
                   RunResult* result) {
  if (opts.trace) {
    result->Set("wall.rows_per_s", f.rows_per_s, "rows/s");
    result->Set("wall.qps", f.qps, "1/s");
    result->Set("wall.query_p50_ms", f.query_p50_ms, "ms");
    return;
  }
  result->Set("setup_s", f.setup_cpu_s, "s");
  result->Set("peak_rss_mb", f.peak_rss_mb, "MiB");
  result->Set("cpu_ms_per_op", f.cpu_ms_per_op, "ms");
  result->Set("query_p50_ms", f.query_p50_ms, "ms");
  result->Info("rows_per_s", f.rows_per_s, "rows/s");
  result->Info("qps", f.qps, "1/s");
  result->Info("steal_pct", f.steal_pct, "%");
}

}  // namespace perfbench

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

// Every traced run reports every per-layer metric. A layer the workload
// never calls reads 0: the benchmark made no call into it.
const struct {
  const char* name;
  const char* unit;
} kPerLayer[] = {
    {"cube.wall_ms", "ms"},
    {"cube.scan_ms", "ms"},
    {"cube.merge_ms", "ms"},
    {"cube.cascade_ms", "ms"},
    {"cube.outside_phases_ms", "ms"},
    {"cube.output_cells", "count"},
    {"cube.iter_calls", "count"},
    {"cube.merge_calls", "count"},
    {"cube.morsels", "count"},
    {"cube.cascade_tasks", "count"},
    {"cube.threads_used", "count"},
    {"cube.hash_probes_per_row", "count"},
    {"cube.arena_mb", "MiB"},
    {"cube.rows_per_s_1t", "rows/s"},
    {"sql.parse_us", "us"},
    {"sql.execute_ms", "ms"},
    {"sql.operator_ms", "ms"},
    {"sql.above_operator_ms", "ms"},
    {"cube.partial_query_ms", "ms"},
    {"http.overhead_ms", "ms"},
    {"http.response_kb", "KiB"},
    {"server.cube_route_ms", "ms"},
    {"server.query_p99_ms", "ms"},
    {"table.csv_parse_ms", "ms"},
    {"ingest.upsert_ms", "ms"},
    {"ingest.compact_ms", "ms"},
    {"ingest.windows_rebuilt", "count"},
    {"ingest.retention_ms", "ms"},
    {"ingest.pruned_scan_ms", "ms"},
    {"ingest.rss_mb_per_mrow", "MiB"},
    {"ingest.partitions", "count"},
    {"ingest.batch_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"wall.rows_per_s", "rows/s"},
    {"wall.qps", "1/s"},
    {"wall.query_p50_ms", "ms"},
};

int Usage() {
  std::cerr << "usage: perfbench --workload <cube_narrow|cube_wide|sql_serve|"
               "ingest_stream> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  opts.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opts.seconds <= 0) return Usage();

  bool (*run)(const RunOptions&, RunResult*) = nullptr;
  if (opts.workload == "cube_narrow") run = perfbench::RunCubeNarrow;
  if (opts.workload == "cube_wide") run = perfbench::RunCubeWide;
  if (opts.workload == "sql_serve") run = perfbench::RunSqlServe;
  if (opts.workload == "ingest_stream") run = perfbench::RunIngestStream;
  if (run == nullptr) return Usage();

  perfbench::Tracer::Get().SetEnabled(opts.trace);
  RunResult result;
  if (!run(opts, &result)) {
    std::cerr << "perfbench: " << opts.workload << " set-up failed\n";
    return 1;
  }
  if (opts.trace) {
    for (const auto& m : kPerLayer) {
      if (result.metrics.count(m.name) == 0) result.Set(m.name, 0, m.unit);
    }
    std::string path = opts.out_dir + "/spans-" + opts.workload + "-" +
                       std::to_string(opts.seed) + ".jsonl";
    if (!perfbench::Tracer::Get().Dump(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "spans: " << perfbench::Tracer::Get().num_spans() << " in "
              << path << "\n";
  }
  perfbench::PrintResult(result);
  // A wrong answer or a failed operation fails the run, not only its JSON.
  for (const auto& [op, count] : result.ops) {
    if (count.failed > 0) return 1;
  }
  return result.correct ? 0 : 1;
}
