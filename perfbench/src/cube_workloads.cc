// cube_narrow and cube_wide: the bare CUBE operator, in process.
//
// Each round runs the same query at num_threads = nproc and then at
// num_threads = 1, checks both answers against the reference cube computed
// before the timed loop, and checks that they agree with each other.

#include <iostream>
#include <map>
#include <memory>

#include "datacube/cube/cube_operator.h"
#include "datacube/workload/sales.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

using datacube::CubeOptions;
using datacube::CubeResult;
using datacube::CubeSpec;
using datacube::CubeStats;
using datacube::Table;

struct CubeShape {
  size_t rows;
  std::vector<size_t> cards;
  double skew;
  /// Narrow: SUM(x), AVG(y), checked cell for cell. Wide: COUNT(*), SUM(x),
  /// checked per grouping set (cells, COUNT total, SUM total).
  bool full_cells;
  /// CubeOptions::morsel_rows of the parallel call; 0 keeps the default.
  size_t morsel_rows;
};

// ~24 values per dimension: the core has 13,824 cells whatever the rows, so
// the time goes to context build, key encode and the morsel scan.
const CubeShape kNarrow{2'000'000, {24, 24, 24}, 0.0, true, 0};

// High-cardinality Zipf dimensions: the core holds about as many cells as
// there are rows, so merge, cascade and result assembly do real work. The
// rows would fit in one default (64Ki-row) morsel and leave the radix merge
// one worker's store to merge; 2Ki-row morsels spread them over every
// worker, so each partition merges nproc stores.
const CubeShape kWide{25'000, {2000, 200, 40, 10}, 0.5, false, 2048};

CubeSpec MakeSpec(const CubeShape& shape) {
  CubeSpec spec;
  for (size_t d = 0; d < shape.cards.size(); ++d) {
    spec.cube.push_back(datacube::GroupCol("d" + std::to_string(d)));
  }
  if (shape.full_cells) {
    spec.aggregates.push_back(datacube::Agg("sum", "x", "sum_x"));
    spec.aggregates.push_back(datacube::Agg("avg", "y", "avg_y"));
  } else {
    spec.aggregates.push_back(datacube::CountStar("n"));
    spec.aggregates.push_back(datacube::Agg("sum", "x", "sum_x"));
  }
  return spec;
}

struct Call {
  double wall_ms = 0;
  double cpu_ms = 0;  // process CPU, all threads, during the call
  CubeStats stats;
};

bool RunCube(const CubeShape& shape, const RunOptions& opts,
             RunResult* result) {
  const size_t nd = shape.cards.size();
  const int nproc = NumCpus();

  // Set-up: input generation, several times before the loop and after it
  // (fewer for the large narrow input, more for the small wide one).
  std::unique_ptr<Table> table;
  auto generate = [&] {
    datacube::CubeInputOptions gen;
    gen.num_rows = shape.rows;
    gen.num_dims = nd;
    gen.cardinalities = shape.cards;
    gen.skew = shape.skew;
    gen.seed = opts.seed;
    auto t = datacube::GenerateCubeInput(gen);
    if (!t.ok()) {
      std::cerr << "generate: " << t.status().ToString() << "\n";
      return false;
    }
    table = std::make_unique<Table>(std::move(t).value());
    return true;
  };
  auto drop = [&] { table.reset(); };
  const int setup_reps = shape.full_cells ? 3 : 100;
  SetupTimer setup;
  if (!setup.Repeat(setup_reps, drop, generate)) return false;

  // The reference, outside the timed region.
  RefInput in = MakeRefInput(*table, nd);
  std::map<uint32_t, RefGroups> ref_cells;        // narrow
  std::map<uint32_t, uint64_t> ref_counts;        // wide
  int64_t sum_x = 0;
  for (int64_t v : in.x) sum_x += v;
  {
    std::vector<uint32_t> masks = AllMasks(nd);
    // Wide groupings are large maps: build them one at a time so the
    // reference never sets the process's peak resident set.
    std::vector<RefGroups> groups =
        RefCube(in, masks, shape.full_cells ? nproc : 1);
    for (size_t i = 0; i < masks.size(); ++i) {
      ref_counts[masks[i]] = groups[i].size();
      if (shape.full_cells) ref_cells[masks[i]] = std::move(groups[i]);
    }
  }

  const CubeSpec spec = MakeSpec(shape);
  CubeOptions par;
  par.num_threads = nproc;
  if (shape.morsel_rows > 0) par.morsel_rows = shape.morsel_rows;
  CubeOptions ser;
  ser.num_threads = 1;

  auto check = [&](const Table& t) {
    return shape.full_cells
               ? CheckCubeCells(t, in, ref_cells)
               : CheckCubeSummary(t, nd, ref_counts,
                                  static_cast<int64_t>(shape.rows), sum_x);
  };

  // One call: timed, traced as "cube.execute" when the round is traced,
  // checked against the reference outside the timed region.
  auto run = [&](const CubeOptions& o, const char* op, Call* call,
                 std::unique_ptr<Table>* keep) {
    const double cpu0 = ProcessCpuSeconds();
    Clock::time_point t0 = Clock::now();
    datacube::Result<CubeResult> res = [&] {
      Span span(o.num_threads == 1 ? "cube.execute_1t" : "cube.execute",
                static_cast<int64_t>(shape.rows));
      return datacube::ExecuteCube(*table, spec, o);
    }();
    call->wall_ms = MsSince(t0);
    call->cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
    if (!res.ok()) {
      result->Attempt(op, false);
      result->Mismatch(std::string(op) + ": " + res.status().ToString());
      return false;
    }
    call->stats = res.value().stats;
    std::string why = check(res.value().table);
    if (!why.empty()) result->Mismatch(std::string(op) + ": " + why);
    result->Attempt(op, why.empty());
    *keep = std::make_unique<Table>(std::move(res.value().table));
    return why.empty();
  };

  std::vector<Call> par_traced, par_untraced, ser_calls;
  size_t calls = 0;
  Clock::time_point loop_start;
  CpuTimes host_start;
  for (int round = 0;; ++round) {
    // Round 0 warms the allocator and the thread pool and is not timed.
    if (round == 1) {
      loop_start = Clock::now();
      host_start = ReadCpuTimes();
    }
    if (round > 2 && SecondsSince(loop_start) >= opts.seconds) break;
    const bool traced = opts.trace && round % 2 == 1;
    Tracer::SetThreadRoundTraced(traced);
    Call p, s;
    std::unique_ptr<Table> p_out, s_out;
    bool ok_p = run(par, "cube_parallel", &p, &p_out);
    bool ok_s = run(ser, "cube_serial", &s, &s_out);
    if (ok_p && ok_s) {
      std::string why = CheckSameAnswer(*p_out, *s_out);
      result->Attempt("serial_equals_parallel", why.empty());
      if (!why.empty()) result->Mismatch(why);
    }
    if (round == 0) continue;
    calls += 2;
    (traced ? par_traced : par_untraced).push_back(p);
    ser_calls.push_back(s);
  }
  const double loop_s = SecondsSince(loop_start);
  Tracer::SetThreadRoundTraced(true);

  auto walls = [](const std::vector<Call>& v) {
    std::vector<double> out;
    for (const Call& c : v) out.push_back(c.wall_ms);
    return out;
  };
  auto cpus = [](const std::vector<Call>& v) {
    std::vector<double> out;
    for (const Call& c : v) out.push_back(c.cpu_ms);
    return out;
  };
  Figures fig;
  // The mean of the two call kinds' medians: one operation is one call.
  fig.cpu_ms_per_op =
      (Median(cpus(par_untraced)) + Median(cpus(ser_calls))) / 2;
  fig.steal_pct = StealPct(host_start);
  const double rows = static_cast<double>(shape.rows);

  fig.peak_rss_mb = PeakRssMb();
  // The table is not used after the loop: set up again, for setup_s.
  if (!opts.trace && !setup.Repeat(setup_reps, drop, generate)) return false;
  fig.setup_cpu_s = setup.MedianSeconds();
  fig.query_p50_ms = Median(walls(par_untraced));
  fig.rows_per_s = rows / (fig.query_p50_ms / 1e3);
  fig.qps = static_cast<double>(calls) / loop_s;
  ReportFigures(opts, fig, result);
  if (!opts.trace) return true;

  // Per-layer figures come from the traced rounds' parallel calls: their
  // spans, in call order, and the CubeStats each call returned.
  const std::vector<double> wall = Tracer::Get().Ms("cube.execute");
  std::vector<double> scan, merge, cascade, outside;
  for (size_t i = 0; i < par_traced.size(); ++i) {
    const CubeStats& st = par_traced[i].stats;
    scan.push_back(st.scan_seconds * 1e3);
    merge.push_back(st.merge_seconds * 1e3);
    cascade.push_back(st.cascade_seconds * 1e3);
    outside.push_back(wall[i] - 1e3 * (st.scan_seconds + st.merge_seconds +
                                       st.cascade_seconds));
  }
  const CubeStats& st = par_traced.back().stats;
  result->Set("cube.wall_ms", Median(wall), "ms");
  result->Set("cube.scan_ms", Median(scan), "ms");
  result->Set("cube.merge_ms", Median(merge), "ms");
  result->Set("cube.cascade_ms", Median(cascade), "ms");
  result->Set("cube.outside_phases_ms", Median(outside), "ms");
  result->Set("cube.output_cells", static_cast<double>(st.output_cells),
              "count");
  result->Set("cube.iter_calls", static_cast<double>(st.iter_calls), "count");
  result->Set("cube.merge_calls", static_cast<double>(st.merge_calls),
              "count");
  result->Set("cube.morsels", static_cast<double>(st.morsels_dispatched),
              "count");
  result->Set("cube.cascade_tasks", static_cast<double>(st.cascade_tasks),
              "count");
  result->Set("cube.threads_used", static_cast<double>(st.threads_used),
              "count");
  result->Set("cube.hash_probes_per_row",
              static_cast<double>(st.hash_probes) / rows, "count");
  result->Set("cube.arena_mb",
              static_cast<double>(st.arena_bytes) / (1024.0 * 1024.0), "MiB");
  result->Set("cube.rows_per_s_1t",
              rows / (Median(Tracer::Get().Ms("cube.execute_1t")) / 1e3),
              "rows/s");
  result->Set("trace.overhead_pct", OverheadPct(wall, walls(par_untraced)),
              "%");
  return true;
}

}  // namespace

bool RunCubeNarrow(const RunOptions& opts, RunResult* result) {
  return RunCube(kNarrow, opts, result);
}

bool RunCubeWide(const RunOptions& opts, RunResult* result) {
  return RunCube(kWide, opts, result);
}

}  // namespace perfbench
