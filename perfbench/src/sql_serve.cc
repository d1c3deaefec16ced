// sql_serve: an in-process CubeServer on loopback under a closed loop of
// three clients, each waiting for its reply before sending the next request.
//
// The mix is fixed: per round of eight requests, six mini-SQL statements
// (CUBE, ROLLUP, GROUPING SETS, WHERE, HAVING, ORDER BY/LIMIT) over a
// registered table and two /cube requests over a budget-materialized
// PartialCube. Every answer is checked against the naive evaluator.
//
// A traced run spends the first half of its time in the same loop, with
// spans around each request, and the second half calling the layers under
// the routes in process, one class at a time: ParseSelect, ExecuteSelect,
// ExecuteSql, the bare ExecuteCube with the same grouping, and
// PartialCube::Query.

#include <iostream>
#include <memory>
#include <thread>

#include "datacube/cube/cube_operator.h"
#include "datacube/server/cube_server.h"
#include "datacube/sql/engine.h"
#include "datacube/sql/parser.h"
#include "datacube/workload/sales.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

using datacube::AggregateSpec;
using datacube::CubeSpec;
using datacube::GroupCol;
using datacube::Table;
using datacube::server::CubeServer;

constexpr size_t kRows = 60'000;
constexpr int kClients = 3;
constexpr size_t kBudgetBytes = 256 * 1024;

struct QueryClass {
  std::string name;        // operation name
  int64_t index = 0;       // position in the mix: the value of its spans
  std::string target;      // HTTP request target
  std::string sql;         // empty for /cube
  uint64_t cube_set = 0;   // /cube: the grouping set, bit i = d<i>
  CubeSpec op_spec;        // SQL: the bare operator under the statement
  CsvRows expected;
  bool ordered = false;

  std::mutex mu;
  std::string verified;  // first body that matched `expected`
  Samples rtt;             // client round trips, every round
};

CubeSpec OpSpec(std::vector<std::string> cube, std::vector<std::string> rollup,
                std::vector<std::string> group_by,
                std::vector<AggregateSpec> aggs) {
  CubeSpec spec;
  for (const auto& c : cube) spec.cube.push_back(GroupCol(c));
  for (const auto& c : rollup) spec.rollup.push_back(GroupCol(c));
  for (const auto& c : group_by) spec.group_by.push_back(GroupCol(c));
  spec.aggregates = std::move(aggs);
  return spec;
}

/// The mix, in round order. Every answer is integer-valued, so the naive
/// evaluator's decimal rendering is exact.
std::vector<std::unique_ptr<QueryClass>> MakeClasses(const RefInput& in) {
  using datacube::Agg;
  using datacube::CountStar;
  std::vector<std::unique_ptr<QueryClass>> out;
  auto sql = [&](const std::string& name, const std::string& text,
                 NaiveQuery q, CubeSpec op, bool ordered) {
    auto c = std::make_unique<QueryClass>();
    c->name = name;
    c->index = static_cast<int64_t>(out.size());
    c->sql = text;
    c->target = "/query?q=" + UrlEncode(text);
    c->op_spec = std::move(op);
    c->expected = NaiveEvaluate(in, q);
    c->ordered = ordered;
    out.push_back(std::move(c));
  };
  auto cube = [&](const std::string& name, uint64_t set,
                  const std::string& keys) {
    auto c = std::make_unique<QueryClass>();
    c->name = name;
    c->index = static_cast<int64_t>(out.size());
    c->cube_set = set;
    c->target = "/cube?name=pc&set=" + UrlEncode(keys);
    NaiveQuery q;
    q.dims = {0, 1, 2, 3};
    q.sets = {static_cast<uint32_t>(set)};
    q.aggs = {AggKind::kSumX, AggKind::kCount};
    c->expected = NaiveEvaluate(in, q);
    out.push_back(std::move(c));
  };
  const auto& x = in.x;
  const auto& y = in.y;

  NaiveQuery q1;
  q1.dims = {0, 1, 2};
  q1.sets = {7, 6, 5, 4, 3, 2, 1, 0};
  q1.aggs = {AggKind::kSumX, AggKind::kCount};
  sql("sql_cube",
      "SELECT d0, d1, d2, SUM(x), COUNT(*) FROM T GROUP BY CUBE d0, d1, d2",
      q1, OpSpec({"d0", "d1", "d2"}, {}, {}, {Agg("sum", "x"), CountStar()}),
      false);

  NaiveQuery q2 = q1;
  q2.where = [&y](size_t r) { return y[r] > 25.0; };
  sql("sql_cube_where",
      "SELECT d0, d1, d2, SUM(x), COUNT(*) FROM T WHERE y > 25.0 "
      "GROUP BY CUBE d0, d1, d2",
      q2, OpSpec({"d0", "d1", "d2"}, {}, {}, {Agg("sum", "x"), CountStar()}),
      false);

  cube("cube_d0_d1", 0b0011, "d0,d1");

  NaiveQuery q3;
  q3.dims = {0, 3};
  q3.sets = {3, 1, 0};
  q3.aggs = {AggKind::kMinX, AggKind::kMaxX, AggKind::kCount};
  q3.where = [&x](size_t r) { return x[r] < 500; };
  sql("sql_rollup_where",
      "SELECT d0, d3, MIN(x), MAX(x), COUNT(*) FROM T WHERE x < 500 "
      "GROUP BY ROLLUP d0, d3",
      q3,
      OpSpec({}, {"d0", "d3"}, {},
             {Agg("min", "x"), Agg("max", "x"), CountStar()}),
      false);

  NaiveQuery q4;
  q4.dims = {1, 2, 3};
  q4.sets = {0b011, 0b100, 0};
  q4.aggs = {AggKind::kSumX};
  q4.having = [](const RefAcc& a) { return a.sum_x > 1'000'000; };
  CubeSpec op4 = OpSpec({}, {}, {"d1", "d2", "d3"}, {Agg("sum", "x")});
  op4.explicit_sets = std::vector<datacube::GroupingSet>{0b011, 0b100, 0};
  sql("sql_gsets_having",
      "SELECT d1, d2, d3, SUM(x) FROM T "
      "GROUP BY GROUPING SETS ((d1, d2), (d3), ()) HAVING SUM(x) > 1000000",
      q4, std::move(op4), false);

  NaiveQuery q5;
  q5.dims = {3};
  q5.sets = {1};
  q5.aggs = {AggKind::kSumX};
  q5.order_by_first_agg_desc = true;
  q5.limit = 5;
  sql("sql_top_limit",
      "SELECT d3, SUM(x) AS sx FROM T GROUP BY d3 ORDER BY sx DESC, d3 "
      "LIMIT 5",
      q5, OpSpec({}, {}, {"d3"}, {Agg("sum", "x")}), true);

  cube("cube_d2_d3", 0b1100, "d2,d3");

  NaiveQuery q6;
  q6.dims = {0, 1};
  q6.sets = {3, 2, 1, 0};
  q6.aggs = {AggKind::kCount};
  auto v3 = in.ids[2].find("v3");
  const int32_t v3_id = v3 == in.ids[2].end() ? -2 : v3->second;
  const auto& d2 = in.codes[2];
  q6.where = [&d2, v3_id](size_t r) { return d2[r] == v3_id; };
  q6.having = [](const RefAcc& a) { return a.count > 100; };
  sql("sql_cube_having",
      "SELECT d0, d1, COUNT(*) FROM T WHERE d2 = 'v3' "
      "GROUP BY CUBE d0, d1 HAVING COUNT(*) > 100",
      q6, OpSpec({"d0", "d1"}, {}, {}, {CountStar()}), false);
  return out;
}

/// Checks one answer: byte-equal to an earlier answer that matched the
/// naive evaluator, or else compared with the evaluator itself.
bool CheckBody(QueryClass& c, const std::string& body, RunResult* result) {
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (!c.verified.empty() && body == c.verified) return true;
  }
  CsvRows rows;
  std::string why = SplitCsv(body, /*skip_header=*/true, &rows)
                        ? CompareRows(rows, c.expected, c.ordered)
                        : "unparseable CSV";
  if (!why.empty()) {
    result->Mismatch(c.name + ": " + why);
    return false;
  }
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.verified.empty()) c.verified = body;
  return true;
}

}  // namespace

bool RunSqlServe(const RunOptions& opts, RunResult* result) {
  const int nproc = NumCpus();
  std::unique_ptr<CubeServer> server;

  // Set-up: input generation, server start, table registration and a
  // budgeted materialization over HTTP; several times before the loop (the
  // last one kept) and after it.
  auto teardown = [&] { server.reset(); };
  auto set_up = [&] {
    datacube::CubeInputOptions gen;
    gen.num_rows = kRows;
    gen.num_dims = 4;
    gen.cardinalities = {12, 6, 10, 25};
    gen.skew = 0.5;
    gen.seed = opts.seed;
    auto table = datacube::GenerateCubeInput(gen);
    if (!table.ok()) return false;
    CubeServer::Options so;
    so.max_concurrent_queries = 2 * kClients;
    so.query_threads = nproc;
    auto started = CubeServer::Start(so);
    if (!started.ok()) {
      std::cerr << "server: " << started.status().ToString() << "\n";
      return false;
    }
    server = std::move(started).value();
    if (!server->RegisterTable("T", std::move(table).value()).ok()) {
      return false;
    }
    HttpReply mat = HttpRequest(
        server->port(), "POST",
        "/materialize?name=pc&table=T&keys=d0,d1,d2,d3&aggs=" +
            UrlEncode("sum(x),count(*)") +
            "&budget_bytes=" + std::to_string(kBudgetBytes));
    if (mat.status != 200) {
      std::cerr << "materialize: " << mat.status << " " << mat.body << "\n";
      return false;
    }
    return true;
  };
  constexpr int kSetupReps = 25;
  SetupTimer setup;
  if (!setup.Repeat(kSetupReps, teardown, set_up)) return false;

  auto snap = server->snapshot();
  std::shared_ptr<const Table> table = snap->catalog.GetShared("T").value();
  RefInput in = MakeRefInput(*table, 4);
  std::vector<std::unique_ptr<QueryClass>> classes = MakeClasses(in);
  const size_t mix = classes.size();

  // Phase 1: the closed loop over HTTP.
  const double loop_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  Samples all_rtt, untraced_rtt, round_s, body_bytes;
  Clock::time_point start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  const CpuTimes host_start = ReadCpuTimes();
  auto client = [&](size_t offset) {
    for (int round = 0;; ++round) {
      if (round > 1 && SecondsSince(start) >= loop_seconds) break;
      const bool traced = opts.trace && round % 2 == 1;
      Tracer::SetThreadRoundTraced(traced);
      Clock::time_point round_start = Clock::now();
      for (size_t i = 0; i < mix; ++i) {
        QueryClass& c = *classes[(offset + i) % mix];
        Clock::time_point t0 = Clock::now();
        HttpReply reply;
        {
          Span span("http.request", c.index);
          reply = HttpRequest(server->port(), "GET", c.target);
        }
        double ms = MsSince(t0);
        bool ok = reply.status == 200;
        if (!ok) {
          result->Mismatch(c.name + ": HTTP " + std::to_string(reply.status) +
                           " " + reply.error + reply.body.substr(0, 200));
        } else {
          ok = CheckBody(c, reply.body, result);
        }
        result->Attempt(c.name, ok);
        c.rtt.Add(ms);
        if (!traced) untraced_rtt.Add(ms);
        all_rtt.Add(ms);
        body_bytes.Add(static_cast<double>(reply.body.size()));
      }
      if (round > 0) round_s.Add(SecondsSince(round_start));
    }
  };
  const size_t offsets[kClients] = {0, 3, 5};
  std::vector<std::thread> clients;
  for (size_t offset : offsets) clients.emplace_back(client, offset);
  for (std::thread& t : clients) t.join();

  // Each client completes one mix per round; the median round keeps a
  // burst of outside load from moving the figure. The latency is, per class,
  // the median round trip, averaged over the mix (each class appears once
  // per round): the classes differ several-fold in cost, and the median of
  // the mixture could jump between them.
  Figures fig;
  fig.cpu_ms_per_op = (ProcessCpuSeconds() - cpu_start) * 1e3 /
                      static_cast<double>(all_rtt.Take().size());
  fig.steal_pct = StealPct(host_start);
  fig.peak_rss_mb = PeakRssMb();
  // The classes hold the table and snapshot they need: set up again, for
  // setup_s, on a fresh server.
  if (!opts.trace && !setup.Repeat(kSetupReps, teardown, set_up)) {
    return false;
  }
  fig.setup_cpu_s = setup.MedianSeconds();
  fig.qps = kClients * static_cast<double>(mix) / Median(round_s.Take());
  fig.rows_per_s = fig.qps * static_cast<double>(kRows);
  std::vector<double> class_p50;
  for (auto& c : classes) class_p50.push_back(Median(c->rtt.Take()));
  fig.query_p50_ms = Mean(class_p50);
  ReportFigures(opts, fig, result);
  if (!opts.trace) {
    server->Stop();
    return true;
  }

  // Phase 2 (traced): the layers under each route, in process, one call at
  // a time, so each figure is free of the other clients' load.
  Tracer::SetThreadRoundTraced(true);
  const auto* entry = snap->FindCube("pc");
  datacube::sql::EngineOptions eo;
  eo.cube.num_threads = nproc;
  datacube::CubeOptions co;
  co.num_threads = nproc;
  Clock::time_point phase2 = Clock::now();
  for (int round = 0;
       round < 2 || SecondsSince(phase2) < opts.seconds - loop_seconds;
       ++round) {
    for (auto& cp : classes) {
      QueryClass& c = *cp;
      const size_t want = c.expected.size();
      bool ok = true;
      if (c.sql.empty()) {
        std::lock_guard<std::mutex> lock(*entry->mu);
        ok = InSpan("cube.partial_query", c.index, [&] {
          auto t = entry->cube->Query(c.cube_set);
          return t.ok() && t.value().num_rows() == want;
        });
      } else {
        datacube::sql::SelectStatement stmt;
        ok = InSpan("sql.parse", c.index, [&] {
          auto s = datacube::sql::ParseSelect(c.sql);
          if (s.ok()) stmt = std::move(s).value();
          return s.ok();
        });
        ok = ok && InSpan("sql.execute", c.index, [&] {
               auto t = datacube::sql::ExecuteSelect(stmt, snap->catalog, eo);
               return t.ok() && t.value().num_rows() == want;
             });
        ok = ok && InSpan("sql.execute_sql", c.index, [&] {
               auto t = datacube::sql::ExecuteSql(c.sql, snap->catalog, eo);
               return t.ok() && t.value().num_rows() == want;
             });
        ok = ok && InSpan("sql.operator", c.index, [&] {
               return datacube::ExecuteCube(*table, c.op_spec, co).ok();
             });
      }
      if (!ok) result->Mismatch("in-process " + c.name);
      result->Attempt("inproc_" + c.name, ok);
    }
  }
  server->Stop();

  // Per class, the median of its spans; per metric, the mean over classes.
  const Tracer& tr = Tracer::Get();
  auto med = [&tr](const char* span, const QueryClass& c) {
    return Median(tr.Ms(span, c.index));
  };
  std::vector<double> parse, exec, exec_sql, op, rtt_sql, partial, rtt_cube;
  for (auto& cp : classes) {
    const QueryClass& c = *cp;
    if (c.sql.empty()) {
      partial.push_back(med("cube.partial_query", c));
      rtt_cube.push_back(med("http.request", c));
    } else {
      parse.push_back(med("sql.parse", c));
      exec.push_back(med("sql.execute", c));
      exec_sql.push_back(med("sql.execute_sql", c));
      op.push_back(med("sql.operator", c));
      rtt_sql.push_back(med("http.request", c));
    }
    std::cerr << c.name << ": rtt_p50_ms=" << med("http.request", c)
              << " parse_ms=" << med("sql.parse", c)
              << " execute_ms=" << med("sql.execute", c)
              << " operator_ms=" << med("sql.operator", c)
              << " partial_ms=" << med("cube.partial_query", c) << "\n";
  }
  result->Set("sql.parse_us", Mean(parse) * 1e3, "us");
  result->Set("sql.execute_ms", Mean(exec), "ms");
  result->Set("sql.operator_ms", Mean(op), "ms");
  result->Set("sql.above_operator_ms", Mean(exec) - Mean(op), "ms");
  result->Set("http.overhead_ms", Mean(rtt_sql) - Mean(exec_sql), "ms");
  result->Set("http.response_kb", Mean(body_bytes.Take()) / 1024.0, "KiB");
  result->Set("cube.partial_query_ms", Mean(partial), "ms");
  result->Set("server.cube_route_ms", Mean(rtt_cube) - Mean(partial), "ms");
  result->Set("server.query_p99_ms", Quantile(all_rtt.Take(), 0.99), "ms");
  result->Set("trace.overhead_pct",
              OverheadPct(tr.Ms("http.request"), untraced_rtt.Take()), "%");
  return true;
}

}  // namespace perfbench
