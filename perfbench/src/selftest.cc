// Shows that each of the benchmark's checks accepts the engine's answer and
// rejects a corrupted copy of it. Exits non-zero if any check fails to tell
// the two apart. Run it with `python3 perfbench/run.py --self-test`.

#include <iostream>
#include <map>
#include <string>

#include "datacube/cube/cube_operator.h"
#include "datacube/sql/catalog.h"
#include "datacube/sql/engine.h"
#include "datacube/table/csv.h"
#include "datacube/workload/sales.h"
#include "bench_util.h"
#include "reference.h"

namespace {

using datacube::Table;
using datacube::Value;
using namespace perfbench;

int failures = 0;

void Expect(bool cond, const std::string& what) {
  std::cout << (cond ? "ok    " : "FAIL  ") << what << "\n";
  if (!cond) ++failures;
}

Table Generate(size_t rows, std::vector<size_t> cards, double skew) {
  datacube::CubeInputOptions gen;
  gen.num_rows = rows;
  gen.num_dims = cards.size();
  gen.cardinalities = cards;
  gen.skew = skew;
  gen.seed = 7;
  return datacube::GenerateCubeInput(gen).value();
}

Table Cube(const Table& t, size_t nd, bool narrow, int threads) {
  datacube::CubeSpec spec;
  for (size_t d = 0; d < nd; ++d) {
    spec.cube.push_back(datacube::GroupCol("d" + std::to_string(d)));
  }
  if (narrow) {
    spec.aggregates.push_back(datacube::Agg("sum", "x", "sum_x"));
    spec.aggregates.push_back(datacube::Agg("avg", "y", "avg_y"));
  } else {
    spec.aggregates.push_back(datacube::CountStar("n"));
    spec.aggregates.push_back(datacube::Agg("sum", "x", "sum_x"));
  }
  datacube::CubeOptions o;
  o.num_threads = threads;
  return datacube::ExecuteCube(t, spec, o).value().table;
}

/// All rows but `drop`, or every row plus a second copy of `dup`.
Table Rows(const Table& t, size_t drop, size_t dup) {
  std::vector<size_t> idx;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (r != drop) idx.push_back(r);
  }
  if (dup < t.num_rows()) idx.push_back(dup);
  return t.TakeRows(idx).value();
}

void TestNarrowCells() {
  Table input = Generate(5000, {5, 5, 5}, 0.0);
  RefInput in = MakeRefInput(input, 3);
  std::map<uint32_t, RefGroups> ref;
  std::vector<uint32_t> masks = AllMasks(3);
  std::vector<RefGroups> groups = RefCube(in, masks, 2);
  for (size_t i = 0; i < masks.size(); ++i) ref[masks[i]] = groups[i];
  Table good = Cube(input, 3, true, 2);
  Expect(CheckCubeCells(good, in, ref).empty(), "narrow: engine answer passes");

  Table bad_sum = Cube(input, 3, true, 2);
  (void)bad_sum.column(3).Set(10, Value::Int64(
                                      bad_sum.column(3).raw<int64_t>()[10] + 1));
  Expect(!CheckCubeCells(bad_sum, in, ref).empty(),
         "narrow: SUM off by one is rejected");

  Table bad_avg = Cube(input, 3, true, 2);
  (void)bad_avg.column(4).Set(
      20, Value::Float64(bad_avg.column(4).raw<double>()[20] * (1 + 1e-6)));
  Expect(!CheckCubeCells(bad_avg, in, ref).empty(),
         "narrow: AVG off by 1e-6 is rejected");

  Expect(!CheckCubeCells(Rows(good, 5, SIZE_MAX), in, ref).empty(),
         "narrow: a missing cell is rejected");
  Expect(!CheckCubeCells(Rows(good, 5, 6), in, ref).empty(),
         "narrow: a repeated cell in place of another is rejected");

  Table bad_key = Cube(input, 3, true, 2);
  (void)bad_key.column(0).Set(0, Value::String("no_such_value"));
  Expect(!CheckCubeCells(bad_key, in, ref).empty(),
         "narrow: a key not in the input is rejected");

  Table serial = Cube(input, 3, true, 1);
  Expect(CheckSameAnswer(good, serial).empty(),
         "narrow: serial and parallel answers agree");
  Expect(!CheckSameAnswer(bad_sum, serial).empty(),
         "narrow: serial/parallel disagreement is rejected");
  Expect(!CheckSameAnswer(bad_avg, serial).empty(),
         "narrow: serial/parallel AVG disagreement is rejected");
}

void TestWideSummary() {
  Table input = Generate(4000, {200, 30, 8, 3}, 0.5);
  RefInput in = MakeRefInput(input, 4);
  std::map<uint32_t, uint64_t> cells;
  std::vector<uint32_t> masks = AllMasks(4);
  std::vector<RefGroups> groups = RefCube(in, masks, 1);
  for (size_t i = 0; i < masks.size(); ++i) cells[masks[i]] = groups[i].size();
  int64_t sum_x = 0;
  for (int64_t v : in.x) sum_x += v;
  const int64_t rows = static_cast<int64_t>(input.num_rows());

  Table good = Cube(input, 4, false, 2);
  Expect(CheckCubeSummary(good, 4, cells, rows, sum_x).empty(),
         "wide: engine answer passes");
  Table bad_n = Cube(input, 4, false, 2);
  (void)bad_n.column(4).Set(
      3, Value::Int64(bad_n.column(4).raw<int64_t>()[3] + 1));
  Expect(!CheckCubeSummary(bad_n, 4, cells, rows, sum_x).empty(),
         "wide: COUNT off by one is rejected");
  Table bad_s = Cube(input, 4, false, 2);
  (void)bad_s.column(5).Set(
      7, Value::Int64(bad_s.column(5).raw<int64_t>()[7] - 1));
  Expect(!CheckCubeSummary(bad_s, 4, cells, rows, sum_x).empty(),
         "wide: SUM off by one is rejected");
  Expect(!CheckCubeSummary(Rows(good, 11, SIZE_MAX), 4, cells, rows, sum_x)
              .empty(),
         "wide: a missing cell is rejected");
  Table bad_set = Cube(input, 4, false, 2);
  size_t keyed = 0;
  while (bad_set.column(0).IsAll(keyed)) ++keyed;
  (void)bad_set.column(0).Set(keyed, Value::All());
  Expect(!CheckCubeSummary(bad_set, 4, cells, rows, sum_x).empty(),
         "wide: a cell moved to another grouping set is rejected");
  Table serial = Cube(input, 4, false, 1);
  Expect(CheckSameAnswer(good, serial).empty(),
         "wide: serial and parallel answers agree");
  Expect(!CheckSameAnswer(bad_n, serial).empty(),
         "wide: serial/parallel disagreement is rejected");
}

void TestSqlRows() {
  Table input = Generate(3000, {4, 3, 5, 6}, 0.5);
  RefInput in = MakeRefInput(input, 4);
  datacube::sql::Catalog catalog;
  (void)catalog.Register("T", input);

  NaiveQuery q;
  q.dims = {0, 1};
  q.sets = {3, 1, 0};
  q.aggs = {AggKind::kSumX, AggKind::kCount};
  q.where = [&in](size_t r) { return in.x[r] < 500; };
  auto t = datacube::sql::ExecuteSql(
      "SELECT d0, d1, SUM(x), COUNT(*) FROM T WHERE x < 500 "
      "GROUP BY ROLLUP d0, d1",
      catalog);
  CsvRows got;
  SplitCsv(datacube::WriteCsvString(t.value()), true, &got);
  CsvRows want = NaiveEvaluate(in, q);
  Expect(CompareRows(got, want, false).empty(), "sql: engine answer passes");
  CsvRows bad = got;
  bad[2][2] = std::to_string(std::stoll(bad[2][2]) + 1);
  Expect(!CompareRows(bad, want, false).empty(),
         "sql: a wrong aggregate is rejected");
  bad = got;
  bad.pop_back();
  Expect(!CompareRows(bad, want, false).empty(),
         "sql: a missing row is rejected");
  bad = got;
  bad[0][0] = bad[0][0] == "ALL" ? "v0" : "ALL";
  Expect(!CompareRows(bad, want, false).empty(),
         "sql: a wrong key is rejected");

  NaiveQuery top;
  top.dims = {3};
  top.sets = {1};
  top.aggs = {AggKind::kSumX};
  top.order_by_first_agg_desc = true;
  top.limit = 3;
  auto tt = datacube::sql::ExecuteSql(
      "SELECT d3, SUM(x) AS sx FROM T GROUP BY d3 ORDER BY sx DESC, d3 "
      "LIMIT 3",
      catalog);
  SplitCsv(datacube::WriteCsvString(tt.value()), true, &got);
  want = NaiveEvaluate(in, top);
  Expect(CompareRows(got, want, true).empty(),
         "sql: ordered engine answer passes");
  std::swap(got[0], got[1]);
  Expect(!CompareRows(got, want, true).empty(),
         "sql: a wrong order is rejected");
}

void TestIngestReads() {
  CsvRows rows = {{"s0", "4", "40"}, {"s1", "6", "60"}, {"ALL", "10", "100"}};
  int64_t count = 0;
  Expect(CheckCountRead(rows, 8, 12, 9, &count).empty() && count == 10,
         "ingest: a consistent read passes");
  Expect(!CheckCountRead(rows, 11, 12, 0, &count).empty(),
         "ingest: a read missing acknowledged rows is rejected");
  Expect(!CheckCountRead(rows, 0, 9, 0, &count).empty(),
         "ingest: a read with more rows than were sent is rejected");
  Expect(!CheckCountRead(rows, 0, 12, 11, &count).empty(),
         "ingest: a count that decreased is rejected");
  CsvRows torn = {{"s0", "4", "40"}, {"s1", "5", "60"}, {"ALL", "10", "100"}};
  Expect(!CheckCountRead(torn, 0, 12, 0, &count).empty(),
         "ingest: groups that do not add up are rejected");

  CsvRows final_rows = {{"1234", "56789"}};
  Expect(CheckFinalTally(final_rows, 1234, 56789).empty(),
         "ingest: the final tally passes");
  Expect(!CheckFinalTally(final_rows, 1235, 56789).empty(),
         "ingest: a lost row is rejected");
  Expect(!CheckFinalTally(final_rows, 1234, 56788).empty(),
         "ingest: a wrong SUM is rejected");
}

}  // namespace

int main() {
  TestNarrowCells();
  TestWideSummary();
  TestSqlRows();
  TestIngestReads();
  std::cout << (failures == 0 ? "all checks reject corrupted answers\n"
                              : "some checks accept corrupted answers\n");
  return failures == 0 ? 0 : 1;
}
