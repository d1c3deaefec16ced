// Reference computations that share no code with the engine.
//
// The data cube is evaluated the way the paper defines it: one literal
// GROUP BY per grouping set, over std::map, straight from the generated
// rows. SQL query classes are answered by a naive evaluator built on the
// same GROUP BY. The engine's answers are then checked against these.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "datacube/table/table.h"

namespace perfbench {

constexpr size_t kMaxDims = 4;
constexpr int32_t kAllId = -1;

/// The generated rows, with each string dimension mapped to dense ids by the
/// benchmark's own dictionary.
struct RefInput {
  size_t rows = 0;
  size_t num_dims = 0;
  std::vector<std::vector<std::string>> names;             // [dim][id]
  std::vector<std::map<std::string, int32_t>> ids;         // [dim][name]
  std::vector<std::vector<int32_t>> codes;                 // [dim][row]
  std::vector<int64_t> x;
  std::vector<double> y;
};

/// Reads the string dimensions d0..d{num_dims-1}, INT64 x and FLOAT64 y of
/// a table made by datacube::GenerateCubeInput.
RefInput MakeRefInput(const datacube::Table& table, size_t num_dims);

struct RefAcc {
  int64_t count = 0;
  int64_t sum_x = 0;
  double sum_y = 0;
  int64_t min_x = INT64_MAX;
  int64_t max_x = INT64_MIN;
};

using RefKey = std::array<int32_t, kMaxDims>;
using RefGroups = std::map<RefKey, RefAcc>;
using RowFilter = std::function<bool(size_t row)>;

/// Literal GROUP BY of the rows that pass `filter` (all rows when empty) on
/// the dimensions whose bit is set in `mask`; other key slots hold kAllId.
RefGroups RefGroupBy(const RefInput& in, uint32_t mask,
                     const RowFilter& filter = {});

/// The 2^N cube: one RefGroupBy per mask in `sets`, up to `threads` at once.
std::vector<RefGroups> RefCube(const RefInput& in,
                               const std::vector<uint32_t>& sets,
                               int threads);

/// Every mask of an N-dimensional CUBE, finest first.
std::vector<uint32_t> AllMasks(size_t num_dims);

// ---------------------------------------------------------------------------
// Checks of engine answers

/// Full cell-for-cell check of a CUBE(d0..) result with columns
/// d0..d{n-1}, sum_x (INT64), avg_y (FLOAT64). `ref` is indexed by mask.
/// Returns "" when it matches, else what differs.
std::string CheckCubeCells(const datacube::Table& result, const RefInput& in,
                           const std::map<uint32_t, RefGroups>& ref);

/// Summary check of a CUBE(d0..) result with columns d0..d{n-1}, n (INT64
/// COUNT(*)), sum_x (INT64): every set's cell count must equal the
/// reference's, and every set's COUNT and SUM(x) must total N and Σx.
std::string CheckCubeSummary(const datacube::Table& result, size_t num_dims,
                             const std::map<uint32_t, uint64_t>& ref_cells,
                             int64_t rows, int64_t sum_x);

/// Serial and parallel answers must agree: same cells in the same order,
/// equal keys and integer aggregates, floating aggregates within 1e-9.
std::string CheckSameAnswer(const datacube::Table& a,
                            const datacube::Table& b);

// ---------------------------------------------------------------------------
// Naive SQL evaluator

enum class AggKind { kSumX, kCount, kMinX, kMaxX };

/// One query class as plain data: SELECT <dims...>, <aggs...> FROM t
/// WHERE <where> GROUP BY <sets over dims> HAVING <having>
/// [ORDER BY agg0 DESC, dims ASC LIMIT n].
struct NaiveQuery {
  std::vector<int> dims;         // table dimensions, in SELECT order
  std::vector<uint32_t> sets;    // grouping sets, bit i = dims[i]
  std::vector<AggKind> aggs;
  RowFilter where;
  std::function<bool(const RefAcc&)> having;
  bool order_by_first_agg_desc = false;
  int64_t limit = -1;
};

using CsvRows = std::vector<std::vector<std::string>>;

/// Expected result rows, rendered as the server renders them (ALL for a
/// rolled-up key, integers in decimal).
CsvRows NaiveEvaluate(const RefInput& in, const NaiveQuery& q);

/// Compares an answer's data rows with the expected rows, in order when
/// `ordered`, else as multisets. Returns "" on a match.
std::string CompareRows(CsvRows got, CsvRows want, bool ordered);

// ---------------------------------------------------------------------------
// Streaming-ingest reads

/// Checks one read of `SELECT k, COUNT(*), SUM(units) ... GROUP BY CUBE k`:
/// the groups' counts must add up to the ALL row's count, which must lie in
/// [lower, upper] (rows acknowledged before the read was sent, rows sent by
/// the time its answer arrived) and must not be below `last_seen`, the
/// count an earlier read saw for the same rows. Sets *count to the ALL
/// row's count. Returns "" on a match.
std::string CheckCountRead(const CsvRows& rows, int64_t lower, int64_t upper,
                           int64_t last_seen, int64_t* count);

/// Checks the final `SELECT COUNT(*), SUM(units)` answer against the tally
/// of rows acknowledged into the windows retention keeps.
std::string CheckFinalTally(const CsvRows& rows, int64_t want_rows,
                            int64_t want_units);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
