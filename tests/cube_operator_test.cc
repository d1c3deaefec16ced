#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "datacube/cube/cube_operator.h"
#include "datacube/cube/key_codec.h"
#include "datacube/expr/scalar_function.h"
#include "datacube/table/sort.h"
#include "datacube/workload/sales.h"
#include "datacube/workload/weather.h"

namespace datacube {
namespace {

// Looks up the single row of `t` whose first `key.size()` columns equal
// `key`, returning the value in column `value_col`.
Value Lookup(const Table& t, const std::vector<Value>& key, size_t value_col) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool match = true;
    for (size_t k = 0; k < key.size() && match; ++k) {
      match = t.GetValue(r, k) == key[k];
    }
    if (match) return t.GetValue(r, value_col);
  }
  ADD_FAILURE() << "row not found";
  return Value::Null();
}

// ------------------------------------------------------- Figure 4 cube

TEST(CubeOperatorTest, Figure4CubeHas48Rows) {
  // "the SALES table has 2 x 3 x 3 = 18 rows, while the derived data cube
  // has 3 x 4 x 4 = 48 rows."
  Table sales = Figure4SalesTable().value();
  Result<CubeResult> cube =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {Agg("sum", "Units", "Units")});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ(cube->table.num_rows(), 48u);
  EXPECT_EQ(cube->stats.output_cells, 48u);
}

TEST(CubeOperatorTest, Figure4GrandTotalTuple) {
  // The paper's "(ALL, ALL, ALL, 941)" tuple.
  Table sales = Figure4SalesTable().value();
  Result<CubeResult> cube =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {Agg("sum", "Units", "Units")});
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(Lookup(cube->table, {Value::All(), Value::All(), Value::All()}, 3),
            Value::Int64(941));
}

TEST(CubeOperatorTest, Table5aSalesSummary) {
  // Table 5.a: the Chevy roll-up rows.
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.rollup = {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")};
  spec.aggregates = {Agg("sum", "Units", "Units")};
  Result<CubeResult> r = ExecuteCube(sales, spec);
  ASSERT_TRUE(r.ok());
  const Table& t = r->table;
  Value chevy = Value::String("Chevy");
  EXPECT_EQ(Lookup(t, {chevy, Value::Int64(1994), Value::String("black")}, 3),
            Value::Int64(50));
  EXPECT_EQ(Lookup(t, {chevy, Value::Int64(1994), Value::All()}, 3),
            Value::Int64(90));
  EXPECT_EQ(Lookup(t, {chevy, Value::Int64(1995), Value::All()}, 3),
            Value::Int64(200));
  EXPECT_EQ(Lookup(t, {chevy, Value::All(), Value::All()}, 3),
            Value::Int64(290));
  // Roll-up is asymmetric: (Chevy, ALL, black) is NOT in a rollup result.
  for (size_t row = 0; row < t.num_rows(); ++row) {
    bool is_missing_shape = t.GetValue(row, 0) == chevy &&
                            t.GetValue(row, 1).is_all() &&
                            !t.GetValue(row, 2).is_all();
    EXPECT_FALSE(is_missing_shape);
  }
}

TEST(CubeOperatorTest, Table5bCubeAddsSymmetricRows) {
  // The cube adds the Table 5.b rows the rollup lacks:
  // (Chevy, ALL, black, 135) and (Chevy, ALL, white, 155).
  Table sales = Table3SalesTable().value();
  Result<CubeResult> cube =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {Agg("sum", "Units", "Units")});
  ASSERT_TRUE(cube.ok());
  Value chevy = Value::String("Chevy");
  EXPECT_EQ(
      Lookup(cube->table, {chevy, Value::All(), Value::String("black")}, 3),
      Value::Int64(135));
  EXPECT_EQ(
      Lookup(cube->table, {chevy, Value::All(), Value::String("white")}, 3),
      Value::Int64(155));
  // Cross-tab totals of Table 6.a/6.b.
  Value ford = Value::String("Ford");
  EXPECT_EQ(Lookup(cube->table, {chevy, Value::All(), Value::All()}, 3),
            Value::Int64(290));
  EXPECT_EQ(Lookup(cube->table, {ford, Value::All(), Value::All()}, 3),
            Value::Int64(220));
  EXPECT_EQ(
      Lookup(cube->table, {Value::All(), Value::All(), Value::All()}, 3),
      Value::Int64(510));
}

TEST(CubeOperatorTest, CardinalityFormulaOnCompleteCross) {
  // |cube| = Π(C_i + 1) when the core is the complete cross product.
  Table sales = Figure4SalesTable().value();  // C = 2, 3, 3
  Result<CubeResult> cube =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {CountStar()});
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->table.num_rows(), (2 + 1) * (3 + 1) * (3 + 1));
}

TEST(CubeOperatorTest, RollupAddsOnlyChainRecords) {
  // "an N-dimensional roll-up will add only N records to the answer set"
  // per distinct prefix; for the full chain the result is core + the
  // prefix sub-totals.
  Table sales = Figure4SalesTable().value();
  Result<CubeResult> rollup =
      Rollup(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
             {Agg("sum", "Units", "Units")});
  ASSERT_TRUE(rollup.ok());
  // 18 core + 6 (model,year) + 2 (model) + 1 grand = 27.
  EXPECT_EQ(rollup->table.num_rows(), 27u);
}

// ------------------------------------------------------ GROUP BY basics

TEST(CubeOperatorTest, PlainGroupBy) {
  Table sales = Table3SalesTable().value();
  Result<CubeResult> r = GroupBy(sales, {GroupCol("Model")},
                                 {Agg("sum", "Units", "Units")});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.num_rows(), 2u);
  EXPECT_EQ(Lookup(r->table, {Value::String("Chevy")}, 1), Value::Int64(290));
}

TEST(CubeOperatorTest, ScalarAggregateNoGroupingColumns) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.aggregates = {Agg("sum", "Units", "Units"), CountStar("n")};
  Result<CubeResult> r = ExecuteCube(sales, spec);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->table.num_rows(), 1u);
  EXPECT_EQ(r->table.GetValue(0, 0), Value::Int64(510));
  EXPECT_EQ(r->table.GetValue(0, 1), Value::Int64(8));
}

TEST(CubeOperatorTest, EmptyInputGrandTotalRowOnly) {
  Table empty(Schema({Field{"a", DataType::kString},
                      Field{"x", DataType::kInt64}}));
  Result<CubeResult> cube =
      Cube(empty, {GroupCol("a")}, {CountStar("n"), Agg("sum", "x", "s")});
  ASSERT_TRUE(cube.ok());
  // Only the empty grouping set yields a row: COUNT = 0, SUM = NULL.
  ASSERT_EQ(cube->table.num_rows(), 1u);
  EXPECT_TRUE(cube->table.GetValue(0, 0).is_all());
  EXPECT_EQ(cube->table.GetValue(0, 1), Value::Int64(0));
  EXPECT_TRUE(cube->table.GetValue(0, 2).is_null());
}

// -------------------------------------------- computed grouping columns

TEST(CubeOperatorTest, HistogramGroupingByFunction) {
  // Section 2: "GROUP BY Day(Time), Nation(Latitude, Longitude)".
  Table weather =
      GenerateWeather({.num_rows = 300, .num_days = 5, .seed = 3}).value();
  CubeSpec spec;
  spec.group_by = {
      GroupExpr{Expr::Call("day", {Expr::Column("Time")}), "day"},
      GroupExpr{
          Expr::Call("nation",
                     {Expr::Column("Latitude"), Expr::Column("Longitude")}),
          "nation"}};
  spec.aggregates = {Agg("max", "Temp", "max_temp")};
  Result<CubeResult> r = ExecuteCube(weather, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->table.num_rows(), 0u);
  EXPECT_LE(r->table.num_rows(), 5u * 10u);
  EXPECT_EQ(r->table.schema().field(0).name, "day");
  EXPECT_EQ(r->table.schema().field(1).name, "nation");
}

// ----------------------------------------------- ALL modes and GROUPING

TEST(CubeOperatorTest, NullWithGroupingMode) {
  // Section 3.4's minimalist design: NULL data values plus GROUPING()
  // discriminator columns. The paper's example output:
  // (NULL, NULL, NULL, 941, TRUE, TRUE, TRUE).
  Table sales = Figure4SalesTable().value();
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")};
  spec.aggregates = {Agg("sum", "Units", "Units")};
  spec.all_mode = AllMode::kNullWithGrouping;
  spec.add_grouping_columns = true;
  Result<CubeResult> r = ExecuteCube(sales, spec);
  ASSERT_TRUE(r.ok());
  const Table& t = r->table;
  ASSERT_EQ(t.num_columns(), 7u);
  bool found = false;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    if (t.GetValue(row, 4) == Value::Bool(true) &&
        t.GetValue(row, 5) == Value::Bool(true) &&
        t.GetValue(row, 6) == Value::Bool(true)) {
      found = true;
      EXPECT_TRUE(t.GetValue(row, 0).is_null());
      EXPECT_TRUE(t.GetValue(row, 1).is_null());
      EXPECT_TRUE(t.GetValue(row, 2).is_null());
      EXPECT_EQ(t.GetValue(row, 3), Value::Int64(941));
    }
  }
  EXPECT_TRUE(found);
  // No ALL tokens anywhere in this mode.
  for (size_t row = 0; row < t.num_rows(); ++row) {
    for (size_t col = 0; col < 3; ++col) {
      EXPECT_FALSE(t.GetValue(row, col).is_all());
    }
  }
}

TEST(CubeOperatorTest, GroupingColumnsDiscriminateRealNulls) {
  // A NULL grouping value in the data is distinguishable from a
  // super-aggregate NULL via GROUPING() — the whole point of Section 3.4.
  Table t(Schema({Field{"k", DataType::kString},
                  Field{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Int64(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("a"), Value::Int64(2)}).ok());
  CubeSpec spec;
  spec.cube = {GroupCol("k")};
  spec.aggregates = {Agg("sum", "x", "s")};
  spec.all_mode = AllMode::kNullWithGrouping;
  spec.add_grouping_columns = true;
  Result<CubeResult> r = ExecuteCube(t, spec);
  ASSERT_TRUE(r.ok());
  // Rows: (NULL data, grouping=false, 1), ("a", false, 2), (NULL, true, 3).
  ASSERT_EQ(r->table.num_rows(), 3u);
  int data_null = 0, super_null = 0;
  for (size_t row = 0; row < 3; ++row) {
    if (!r->table.GetValue(row, 0).is_null()) continue;
    if (r->table.GetValue(row, 2) == Value::Bool(true)) {
      ++super_null;
      EXPECT_EQ(r->table.GetValue(row, 1), Value::Int64(3));
    } else {
      ++data_null;
      EXPECT_EQ(r->table.GetValue(row, 1), Value::Int64(1));
    }
  }
  EXPECT_EQ(data_null, 1);
  EXPECT_EQ(super_null, 1);
}

// --------------------------------------------------------- decorations

TEST(CubeOperatorTest, DecorationsFollowTable7Rule) {
  // Table 7: continent appears only when nation is concrete.
  Table weather =
      GenerateWeather({.num_rows = 200, .num_days = 3, .seed = 5}).value();
  ExprPtr nation_expr = Expr::Call(
      "nation", {Expr::Column("Latitude"), Expr::Column("Longitude")});
  CubeSpec spec;
  spec.cube = {GroupExpr{Expr::Call("day", {Expr::Column("Time")}), "day"},
               GroupExpr{nation_expr, "nation"}};
  spec.aggregates = {Agg("max", "Temp", "max_temp")};
  spec.decorations = {Decoration{
      Expr::Call("continent",
                 {Expr::Call("nation", {Expr::Column("Latitude"),
                                        Expr::Column("Longitude")})}),
      "continent", /*determinant=*/0b10}};
  Result<CubeResult> r = ExecuteCube(weather, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r->table;
  // Columns: day, nation, continent, max_temp.
  for (size_t row = 0; row < t.num_rows(); ++row) {
    Value nation = t.GetValue(row, 1);
    Value continent = t.GetValue(row, 2);
    if (nation.is_all()) {
      EXPECT_TRUE(continent.is_null()) << "row " << row;
    } else {
      EXPECT_FALSE(continent.is_null()) << "row " << row;
    }
  }
}

// ----------------------------------------------- explicit GROUPING SETS

TEST(CubeOperatorTest, ExplicitGroupingSets) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year")};
  spec.explicit_sets = std::vector<GroupingSet>{0b01ULL, 0b10ULL};
  spec.aggregates = {Agg("sum", "Units", "Units")};
  Result<CubeResult> r = ExecuteCube(sales, spec);
  ASSERT_TRUE(r.ok());
  // 2 models + 2 years = 4 rows; no core, no grand total.
  EXPECT_EQ(r->table.num_rows(), 4u);
  EXPECT_EQ(Lookup(r->table, {Value::String("Ford"), Value::All()}, 2),
            Value::Int64(220));
  EXPECT_EQ(Lookup(r->table, {Value::All(), Value::Int64(1994)}, 2),
            Value::Int64(150));
}

// ------------------------------------------------- compound §3.1 algebra

TEST(CubeOperatorTest, CompoundGroupByRollupCube) {
  // GROUP BY Model, ROLLUP Year, CUBE Color over Table 3 data:
  // sets = 1 × 2 × 2 = 4 per model.
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.group_by = {GroupCol("Model")};
  spec.rollup = {GroupCol("Year")};
  spec.cube = {GroupCol("Color")};
  spec.aggregates = {Agg("sum", "Units", "Units")};
  Result<CubeResult> r = ExecuteCube(sales, spec);
  ASSERT_TRUE(r.ok());
  // Every row has a concrete Model (GROUP BY part never aggregates away).
  for (size_t row = 0; row < r->table.num_rows(); ++row) {
    EXPECT_FALSE(r->table.GetValue(row, 0).is_all());
  }
  // (Chevy, ALL, white) exists (cube part) ...
  EXPECT_EQ(Lookup(r->table, {Value::String("Chevy"), Value::All(),
                              Value::String("white")}, 3),
            Value::Int64(155));
  // ... and (Chevy, ALL, ALL) exists via the rollup.
  EXPECT_EQ(Lookup(r->table,
                   {Value::String("Chevy"), Value::All(), Value::All()}, 3),
            Value::Int64(290));
}

// ------------------------------------------------ algorithm equivalence

class AlgorithmTest : public ::testing::TestWithParam<CubeAlgorithm> {};

TEST_P(AlgorithmTest, MatchesUnionBaselineOnFigure4) {
  Table sales = Figure4SalesTable().value();
  std::vector<GroupExpr> dims = {GroupCol("Model"), GroupCol("Year"),
                                 GroupCol("Color")};
  std::vector<AggregateSpec> aggs = {Agg("sum", "Units", "s"),
                                     Agg("avg", "Units", "a"),
                                     CountStar("n")};
  CubeOptions baseline_opts;
  baseline_opts.algorithm = CubeAlgorithm::kUnionGroupBy;
  Table expected = Cube(sales, dims, aggs, baseline_opts)->table;

  CubeOptions opts;
  opts.algorithm = GetParam();
  Result<CubeResult> got = Cube(sales, dims, aggs, opts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->table.EqualsIgnoringRowOrder(expected))
      << CubeAlgorithmName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmTest,
    ::testing::Values(CubeAlgorithm::kNaive2N, CubeAlgorithm::kFromCore,
                      CubeAlgorithm::kArrayCube, CubeAlgorithm::kSortRollup,
                      CubeAlgorithm::kSortFromCore, CubeAlgorithm::kAuto),
    [](const auto& info) { return CubeAlgorithmName(info.param); });

TEST(CubeOperatorTest, ParallelMatchesSerial) {
  Table sales =
      GenerateSales({.num_rows = 20000, .num_models = 5, .num_years = 4,
                     .num_colors = 3, .num_dealers = 4, .skew = 0.5,
                     .seed = 11})
          .value();
  std::vector<GroupExpr> dims = {GroupCol("Model"), GroupCol("Year"),
                                 GroupCol("Color")};
  // Integer-valued aggregates keep double arithmetic exact, so serial and
  // parallel merge orders produce bit-identical results.
  std::vector<AggregateSpec> aggs = {Agg("sum", "Units", "s"),
                                     Agg("avg", "Units", "au")};
  Table serial = Cube(sales, dims, aggs)->table;
  CubeOptions opts;
  opts.num_threads = 4;
  Result<CubeResult> parallel = Cube(sales, dims, aggs, opts);
  ASSERT_TRUE(parallel.ok());
  EXPECT_GT(parallel->stats.threads_used, 1);
  EXPECT_TRUE(parallel->table.EqualsIgnoringRowOrder(serial));
}

// -------------------------------------------------------- stats claims

TEST(CubeOperatorTest, Naive2NIterCallsAreTTimes2N) {
  // Section 5: "the 2^N-algorithm invokes the Iter() function T × 2^N
  // times" (per aggregate).
  Table sales = Figure4SalesTable().value();
  CubeOptions opts;
  opts.algorithm = CubeAlgorithm::kNaive2N;
  Result<CubeResult> r =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {Agg("sum", "Units", "s")}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.iter_calls, 18u * 8u);
}

TEST(CubeOperatorTest, FromCoreItersOncePerRow) {
  Table sales = Figure4SalesTable().value();
  CubeOptions opts;
  opts.algorithm = CubeAlgorithm::kFromCore;
  Result<CubeResult> r =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {Agg("sum", "Units", "s")}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.iter_calls, 18u);
  EXPECT_EQ(r->stats.input_scans, 1u);
  EXPECT_GT(r->stats.merge_calls, 0u);
}

TEST(CubeOperatorTest, UnionBaselineScansPerGroupingSet) {
  // "64 scans of the data" for 6 dimensions; here 2^3 = 8 scans.
  Table sales = Figure4SalesTable().value();
  CubeOptions opts;
  opts.algorithm = CubeAlgorithm::kUnionGroupBy;
  Result<CubeResult> r =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {Agg("sum", "Units", "s")}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.input_scans, 8u);
  EXPECT_EQ(r->stats.iter_calls, 18u * 8u);
}

TEST(CubeOperatorTest, HolisticForcesFallback) {
  // A median cube cannot cascade scratchpads; FromCore silently degrades to
  // the per-set path and still produces correct results.
  Table sales = Figure4SalesTable().value();
  CubeOptions from_core;
  from_core.algorithm = CubeAlgorithm::kFromCore;
  Result<CubeResult> r =
      Cube(sales, {GroupCol("Model"), GroupCol("Year")},
           {Agg("median", "Units", "med")}, from_core);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.input_scans, 4u);  // one per grouping set

  CubeOptions naive;
  naive.algorithm = CubeAlgorithm::kNaive2N;
  Result<CubeResult> expected =
      Cube(sales, {GroupCol("Model"), GroupCol("Year")},
           {Agg("median", "Units", "med")}, naive);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(r->table.EqualsIgnoringRowOrder(expected->table));
}

// --------------------------------------------------------- error paths

TEST(CubeOperatorTest, RejectsBadSpecs) {
  Table sales = Table3SalesTable().value();
  CubeSpec no_aggs;
  no_aggs.cube = {GroupCol("Model")};
  EXPECT_FALSE(ExecuteCube(sales, no_aggs).ok());

  CubeSpec bad_column;
  bad_column.cube = {GroupCol("Nope")};
  bad_column.aggregates = {CountStar()};
  EXPECT_FALSE(ExecuteCube(sales, bad_column).ok());

  CubeSpec bad_agg;
  bad_agg.cube = {GroupCol("Model")};
  bad_agg.aggregates = {Agg("no_such_agg", "Units")};
  EXPECT_FALSE(ExecuteCube(sales, bad_agg).ok());

  CubeSpec dup_names;
  dup_names.cube = {GroupCol("Model"), GroupCol("Model")};
  dup_names.aggregates = {CountStar()};
  EXPECT_FALSE(ExecuteCube(sales, dup_names).ok());

  CubeSpec bad_set;
  bad_set.cube = {GroupCol("Model")};
  bad_set.explicit_sets = std::vector<GroupingSet>{0b100ULL};
  bad_set.aggregates = {CountStar()};
  EXPECT_FALSE(ExecuteCube(sales, bad_set).ok());
}

TEST(CubeOperatorTest, DistinctAggregateInCube) {
  Table sales = Table3SalesTable().value();
  AggregateSpec distinct_colors;
  distinct_colors.function = "count";
  distinct_colors.args = {Expr::Column("Color")};
  distinct_colors.distinct = true;
  distinct_colors.output_name = "distinct_colors";
  Result<CubeResult> r =
      Cube(sales, {GroupCol("Model")}, {distinct_colors});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Lookup(r->table, {Value::String("Chevy")}, 1), Value::Int64(2));
  EXPECT_EQ(Lookup(r->table, {Value::All()}, 1), Value::Int64(2));
}

// ------------------------------------------------------- result order

// The columnar assembler orders the result by dictionary rank. A stable
// SortTable of the unsorted result is the independent witness: sorted
// output must equal it exactly, which pins tie order as well as
// sortedness.
void ExpectKeyOrderMatchesSortTable(const Table& input, const CubeSpec& spec,
                                    CubeOptions options) {
  options.sort_result = false;
  Result<CubeResult> unsorted = ExecuteCube(input, spec, options);
  ASSERT_TRUE(unsorted.ok()) << unsorted.status().ToString();
  options.sort_result = true;
  Result<CubeResult> sorted = ExecuteCube(input, spec, options);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  std::vector<SortKey> keys;
  for (size_t k = 0; k < spec.AllGroupExprs().size(); ++k) {
    keys.push_back(SortKey{k, /*ascending=*/true});
  }
  Result<Table> witness = SortTable(unsorted->table, keys);
  ASSERT_TRUE(witness.ok());
  EXPECT_TRUE(sorted->table.EqualsExact(*witness));
  EXPECT_EQ(sorted->stats.output_cells, unsorted->stats.output_cells);
}

const CubeAlgorithm kSerialAlgorithms[] = {
    CubeAlgorithm::kAuto,
    CubeAlgorithm::kNaive2N,
    CubeAlgorithm::kUnionGroupBy,
    CubeAlgorithm::kFromCore,
    CubeAlgorithm::kArrayCube,
    CubeAlgorithm::kSortRollup,
    CubeAlgorithm::kSortFromCore,
};

// Keys with NULLs and a literal ALL in the data, so aggregated-away ALL
// planes tie with data rows.
Table SpecialKeysTable() {
  TableBuilder b({Field{"a", DataType::kString, true, true},
                  Field{"b", DataType::kInt64, true, true},
                  Field{"x", DataType::kInt64}});
  const char* names[] = {"m", "c", "x"};
  for (int r = 0; r < 60; ++r) {
    Value a = Value::String(names[r % 3]);
    if (r % 7 == 0) a = Value::All();
    if (r % 5 == 0) a = Value::Null();
    Value b_val = Value::Int64(r % 3 - 1);
    if (r % 11 == 0) b_val = Value::All();
    if (r % 4 == 0) b_val = Value::Null();
    b.Row({a, b_val, Value::Int64(r)});
  }
  return std::move(b).Build().value();
}

TEST(ResultOrderTest, LiteralAllKeysTieWithAllPlanes) {
  Table t = SpecialKeysTable();
  CubeSpec spec;
  spec.cube = {GroupCol("a"), GroupCol("b")};
  spec.aggregates = {Agg("sum", "x", "sx"), CountStar("n")};
  for (CubeAlgorithm algorithm : kSerialAlgorithms) {
    SCOPED_TRACE(CubeAlgorithmName(algorithm));
    CubeOptions options;
    options.algorithm = algorithm;
    ExpectKeyOrderMatchesSortTable(t, spec, options);
  }
}

TEST(ResultOrderTest, NullWithGroupingTiesRealNulls) {
  Table t = SpecialKeysTable();
  CubeSpec spec;
  spec.cube = {GroupCol("a"), GroupCol("b")};
  spec.aggregates = {Agg("sum", "x", "sx")};
  spec.all_mode = AllMode::kNullWithGrouping;
  for (bool grouping_columns : {false, true}) {
    spec.add_grouping_columns = grouping_columns;
    spec.add_grouping_id = grouping_columns;
    for (CubeAlgorithm algorithm : kSerialAlgorithms) {
      SCOPED_TRACE(CubeAlgorithmName(algorithm));
      CubeOptions options;
      options.algorithm = algorithm;
      ExpectKeyOrderMatchesSortTable(t, spec, options);
    }
  }
}

// A scalar function declared FLOAT64 that returns INT64 for some rows: the
// FLOAT64 result column widens those, so 2^53 + 1 (distinct from 2^53 in
// the Value order) lands on the same double as 2^53 and must tie with it.
void RegisterMixedNumericFunction() {
  ScalarFunction fn;
  fn.name = "test_mixed_numeric";
  fn.arity = 1;
  fn.result_type = [](const std::vector<DataType>&) -> Result<DataType> {
    return DataType::kFloat64;
  };
  fn.eval = [](const std::vector<Value>& args) -> Result<Value> {
    const int64_t kTwo53 = int64_t{1} << 53;
    switch (args[0].int64_value() % 5) {
      case 0:
        return Value::Int64(kTwo53 + 1);
      case 1:
        return Value::Int64(kTwo53);
      case 2:
        return Value::Float64(9007199254740992.0);  // 2^53
      case 3:
        return Value::Int64(-3);
      default:
        return Value::Float64(-2.5);
    }
  };
  // Registration is process-wide; a repeated test run finds it present.
  (void)ScalarFunctionRegistry::Global().Register(fn);
}

TEST(ResultOrderTest, NanSignedZeroAndMixedNumericKeys) {
  RegisterMixedNumericFunction();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {nan, -0.0, 0.0, inf, -inf, 1.5, -nan};
  TableBuilder b({Field{"f", DataType::kFloat64, true, true},
                  Field{"i", DataType::kInt64},
                  Field{"x", DataType::kInt64}});
  for (int r = 0; r < 70; ++r) {
    Value f = r % 9 == 0 ? Value::Null() : Value::Float64(specials[r % 7]);
    b.Row({f, Value::Int64(r), Value::Int64(r * 3)});
  }
  Table t = std::move(b).Build().value();
  CubeSpec spec;
  spec.cube = {
      GroupCol("f"),
      GroupExpr{Expr::Call("test_mixed_numeric", {Expr::Column("i")}), "m"},
      GroupExpr{Expr::Binary(BinaryOp::kMul, Expr::Column("f"),
                             Expr::Lit(Value::Float64(-1.0))),
                "neg_f"}};
  spec.aggregates = {Agg("sum", "x", "sx"), CountStar("n")};
  for (CubeAlgorithm algorithm : kSerialAlgorithms) {
    SCOPED_TRACE(CubeAlgorithmName(algorithm));
    CubeOptions options;
    options.algorithm = algorithm;
    ExpectKeyOrderMatchesSortTable(t, spec, options);
  }
}

TEST(ResultOrderTest, KeyValuesOfTheWrongTypeFailOnlyWhenEmitted) {
  // A scalar function declared INT64 that returns a FLOAT64 for odd input:
  // the result column rejects that value, as Table::AppendRow would.
  ScalarFunction fn;
  fn.name = "test_lying_int";
  fn.arity = 1;
  fn.result_type = [](const std::vector<DataType>&) -> Result<DataType> {
    return DataType::kInt64;
  };
  fn.eval = [](const std::vector<Value>& args) -> Result<Value> {
    int64_t i = args[0].int64_value();
    return i % 2 == 1 ? Value::Float64(0.5) : Value::Int64(i);
  };
  (void)ScalarFunctionRegistry::Global().Register(fn);
  TableBuilder b({Field{"i", DataType::kInt64}, Field{"x", DataType::kInt64}});
  for (int r = 0; r < 10; ++r) b.Row({Value::Int64(r), Value::Int64(r % 3)});
  Table t = std::move(b).Build().value();
  GroupExpr lying{Expr::Call("test_lying_int", {Expr::Column("i")}), "li"};
  for (bool sorted : {false, true}) {
    CubeOptions options;
    options.sort_result = sorted;
    CubeSpec spec;
    spec.cube = {GroupCol("x"), lying};
    spec.aggregates = {CountStar("n")};
    Result<CubeResult> r = ExecuteCube(t, spec, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
    EXPECT_NE(r.status().message().find("column 'li'"), std::string::npos);
    // A grouping set list that never groups `li` emits only ALL there.
    spec.explicit_sets = std::vector<GroupingSet>{0b01};
    r = ExecuteCube(t, spec, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->table.num_rows(), 3u);
  }
}

TEST(ResultOrderTest, FirstFailingCellInResultOrderReportsTheError) {
  // Cell (x = 0, li = 0) overflows SUM; cell (x = 1, li = 0.5) holds a key
  // value its INT64 column rejects. Sorted on x, the overflow comes first,
  // so its error is the one returned, whichever kind of error a later cell
  // would have raised.
  ScalarFunction fn;
  fn.name = "test_lying_int";
  fn.arity = 1;
  fn.result_type = [](const std::vector<DataType>&) -> Result<DataType> {
    return DataType::kInt64;
  };
  fn.eval = [](const std::vector<Value>& args) -> Result<Value> {
    int64_t i = args[0].int64_value();
    return i % 2 == 1 ? Value::Float64(0.5) : Value::Int64(i);
  };
  (void)ScalarFunctionRegistry::Global().Register(fn);
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  TableBuilder b({Field{"x", DataType::kInt64}, Field{"j", DataType::kInt64},
                  Field{"y", DataType::kInt64}});
  for (int r = 0; r < 4; ++r) {
    const int64_t x = r % 2;
    b.Row({Value::Int64(x), Value::Int64(x), Value::Int64(x == 0 ? kMax : 1)});
  }
  Table t = std::move(b).Build().value();
  CubeSpec spec;
  spec.cube = {GroupCol("x"),
               GroupExpr{Expr::Call("test_lying_int", {Expr::Column("j")}),
                         "li"}};
  spec.explicit_sets = std::vector<GroupingSet>{0b11};
  spec.aggregates = {Agg("sum", "y", "sy")};
  Result<CubeResult> r = ExecuteCube(t, spec, CubeOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(ResultOrderTest, RanksWiderThanOneWord) {
  // Ten columns of 128 values each, plus NULL and ALL: 130 ranks, 8 bits
  // per column, 80 bits in all — more than one packed 64-bit rank key
  // holds.
  std::vector<Field> fields;
  for (int k = 0; k < 10; ++k) {
    fields.push_back(Field{"k" + std::to_string(k), DataType::kInt64});
  }
  fields.push_back(Field{"x", DataType::kInt64});
  TableBuilder b(fields);
  for (int r = 0; r < 400; ++r) {
    std::vector<Value> row;
    for (int k = 0; k < 10; ++k) {
      if ((r + k) % 37 == 0) {
        row.push_back(Value::Null());
      } else {
        row.push_back(Value::Int64((r * (2 * k + 3) + k) % 128));
      }
    }
    row.push_back(Value::Int64(r));
    b.Row(row);
  }
  Table t = std::move(b).Build().value();
  CubeSpec spec;
  for (int k = 0; k < 10; ++k) {
    spec.rollup.push_back(GroupCol("k" + std::to_string(k)));
  }
  spec.aggregates = {Agg("sum", "x", "sx")};
  for (AllMode mode : {AllMode::kAllToken, AllMode::kNullWithGrouping}) {
    spec.all_mode = mode;
    spec.add_grouping_columns = mode == AllMode::kNullWithGrouping;
    ExpectKeyOrderMatchesSortTable(t, spec, CubeOptions{});
  }
}

TEST(ResultOrderTest, ParallelMorselsEmitKeyOrder) {
  CubeInputOptions gen;
  gen.num_rows = 10000;
  gen.num_dims = 4;
  gen.cardinalities = {300, 40, 12, 5};
  gen.skew = 0.5;
  gen.seed = 7;
  Table t = GenerateCubeInput(gen).value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2"),
               GroupCol("d3")};
  spec.aggregates = {CountStar("n"), Agg("sum", "x", "sx")};
  CubeOptions options;
  options.num_threads = 4;
  options.morsel_rows = 2048;
  ExpectKeyOrderMatchesSortTable(t, spec, options);
  Result<CubeResult> serial = ExecuteCube(t, spec);
  Result<CubeResult> parallel = ExecuteCube(t, spec, options);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_GT(parallel->stats.threads_used, 1);
  EXPECT_TRUE(parallel->table.EqualsExact(serial->table));
}

TEST(ResultOrderTest, BudgetedLatticeRewriteEmitsKeyOrder) {
  Table sales =
      GenerateSales({.num_rows = 3000, .num_models = 6, .num_years = 5,
                     .num_colors = 4, .num_dealers = 7, .skew = 0.5,
                     .seed = 3})
          .value();
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year"), GroupCol("Color"),
               GroupCol("Dealer")};
  spec.aggregates = {Agg("sum", "Units", "s"), CountStar("n")};
  for (size_t budget : {size_t{512}, size_t{8192}}) {
    CubeOptions options;
    options.materialize_budget_bytes = budget;
    ExpectKeyOrderMatchesSortTable(sales, spec, options);
    Result<CubeResult> r = ExecuteCube(sales, spec, options);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->stats.lattice_ancestor_folds, 0u);
  }
}

TEST(ResultOrderTest, RankTableOfGrownCodecFollowsValueOrder) {
  using cube_internal::KeyCodec;
  KeyCodec codec = KeyCodec::Build(
      {{Value::String("m"), Value::String("c"), Value::String("x")},
       {Value::Int64(5), Value::Float64(1.5), Value::Int64(7)}});
  // Growth appends codes after the sorted ones, out of value order.
  const uint64_t a = codec.CodeOfOrAdd(0, Value::String("a"));
  const uint64_t z = codec.CodeOfOrAdd(0, Value::String("z"));
  const uint64_t d = codec.CodeOfOrAdd(0, Value::String("d"));
  const uint64_t big =
      codec.CodeOfOrAdd(1, Value::Int64((int64_t{1} << 53) + 1));
  const uint64_t two53 =
      codec.CodeOfOrAdd(1, Value::Float64(9007199254740992.0));
  const uint64_t neg = codec.CodeOfOrAdd(1, Value::Int64(-1));
  codec.CodeOfOrAdd(0, Value::Null());
  ASSERT_GT(a, *codec.CodeOf(0, Value::String("x")));

  std::vector<uint32_t> r0 = codec.RankTable(0, DataType::kString);
  ASSERT_EQ(r0.size(), codec.max_code(0) + 1);
  auto rank0 = [&](const char* s) {
    return r0[*codec.CodeOf(0, Value::String(s))];
  };
  EXPECT_EQ(r0[KeyCodec::kNullCode], 0u);
  EXPECT_EQ(r0[KeyCodec::kAllCode], 1u);
  EXPECT_EQ(r0[a], 2u);
  EXPECT_LT(r0[a], rank0("c"));
  EXPECT_LT(rank0("c"), r0[d]);
  EXPECT_LT(r0[d], rank0("m"));
  EXPECT_LT(rank0("m"), rank0("x"));
  EXPECT_LT(rank0("x"), r0[z]);

  // As a FLOAT64 result column stores them, 2^53 + 1 and 2^53 are one
  // double and tie; in the exact Value order they do not.
  std::vector<uint32_t> widened = codec.RankTable(1, DataType::kFloat64);
  EXPECT_EQ(widened[big], widened[two53]);
  EXPECT_LT(widened[neg], widened[*codec.CodeOf(1, Value::Float64(1.5))]);
  EXPECT_LT(widened[*codec.CodeOf(1, Value::Int64(7))], widened[two53]);
  std::vector<uint32_t> exact = codec.RankTable(1, DataType::kInt64);
  EXPECT_LT(exact[two53], exact[big]);
}

}  // namespace
}  // namespace datacube
