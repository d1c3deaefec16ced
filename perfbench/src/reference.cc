#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>

namespace perfbench {

using datacube::Column;
using datacube::DataType;
using datacube::Table;

RefInput MakeRefInput(const Table& table, size_t num_dims) {
  RefInput in;
  in.rows = table.num_rows();
  in.num_dims = num_dims;
  in.names.resize(num_dims);
  in.ids.resize(num_dims);
  in.codes.resize(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    const auto& values = table.column(d).raw<std::string>();
    auto& ids = in.ids[d];
    auto& codes = in.codes[d];
    codes.resize(in.rows);
    for (size_t r = 0; r < in.rows; ++r) {
      auto [it, inserted] =
          ids.emplace(values[r], static_cast<int32_t>(ids.size()));
      if (inserted) in.names[d].push_back(values[r]);
      codes[r] = it->second;
    }
  }
  in.x = table.column(num_dims).raw<int64_t>();
  in.y = table.column(num_dims + 1).raw<double>();
  return in;
}

RefGroups RefGroupBy(const RefInput& in, uint32_t mask,
                     const RowFilter& filter) {
  RefGroups groups;
  RefKey key;
  key.fill(kAllId);
  for (size_t r = 0; r < in.rows; ++r) {
    if (filter && !filter(r)) continue;
    for (size_t d = 0; d < in.num_dims; ++d) {
      key[d] = (mask >> d) & 1 ? in.codes[d][r] : kAllId;
    }
    RefAcc& acc = groups[key];
    ++acc.count;
    acc.sum_x += in.x[r];
    acc.sum_y += in.y[r];
    acc.min_x = std::min(acc.min_x, in.x[r]);
    acc.max_x = std::max(acc.max_x, in.x[r]);
  }
  return groups;
}

std::vector<RefGroups> RefCube(const RefInput& in,
                               const std::vector<uint32_t>& sets,
                               int threads) {
  std::vector<RefGroups> out(sets.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < sets.size(); i = next++) {
      out[i] = RefGroupBy(in, sets[i]);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return out;
}

std::vector<uint32_t> AllMasks(size_t num_dims) {
  std::vector<uint32_t> masks;
  for (uint32_t m = (1u << num_dims); m-- > 0;) masks.push_back(m);
  return masks;
}

namespace {

/// Mask and reference key of result row `r`: a dimension is rolled up when
/// its column holds ALL. Returns false when a value is not in the input.
bool RowKey(const Table& t, const RefInput& in, size_t r, uint32_t* mask,
            RefKey* key) {
  *mask = 0;
  key->fill(kAllId);
  for (size_t d = 0; d < in.num_dims; ++d) {
    const Column& col = t.column(d);
    if (col.IsAll(r)) continue;
    if (col.type() != DataType::kString || col.IsNull(r)) return false;
    auto it = in.ids[d].find(col.raw<std::string>()[r]);
    if (it == in.ids[d].end()) return false;
    *mask |= 1u << d;
    (*key)[d] = it->second;
  }
  return true;
}

/// Per-set summary of a cube answer: cells, COUNT total and SUM(x) total.
struct SetSummary {
  uint64_t cells = 0;
  int64_t count = 0;
  int64_t sum_x = 0;
  bool operator==(const SetSummary& o) const = default;
};

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

std::string CheckCubeCells(const Table& result, const RefInput& in,
                           const std::map<uint32_t, RefGroups>& ref) {
  const size_t nd = in.num_dims;
  if (result.num_columns() != nd + 2) return "wrong column count";
  const Column& sum_col = result.column(nd);
  const Column& avg_col = result.column(nd + 1);
  if (sum_col.type() != DataType::kInt64 ||
      avg_col.type() != DataType::kFloat64) {
    return "wrong aggregate types";
  }
  size_t want_rows = 0;
  for (const auto& [mask, groups] : ref) want_rows += groups.size();
  if (result.num_rows() != want_rows) {
    return "cells " + std::to_string(result.num_rows()) + " != reference " +
           std::to_string(want_rows);
  }
  std::map<uint32_t, std::set<RefKey>> seen;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    uint32_t mask;
    RefKey key;
    if (!RowKey(result, in, r, &mask, &key)) {
      return "row " + std::to_string(r) + " has a key not in the input";
    }
    auto set_it = ref.find(mask);
    if (set_it == ref.end()) return "row in an unexpected grouping set";
    auto cell = set_it->second.find(key);
    if (cell == set_it->second.end()) {
      return "row " + std::to_string(r) + " is not a reference cell";
    }
    if (!seen[mask].insert(key).second) {
      return "row " + std::to_string(r) + " repeats a cell";
    }
    const RefAcc& acc = cell->second;
    if (sum_col.IsNull(r) || sum_col.raw<int64_t>()[r] != acc.sum_x) {
      return "SUM(x) differs at row " + std::to_string(r);
    }
    if (avg_col.IsNull(r) ||
        !Close(avg_col.raw<double>()[r],
               acc.sum_y / static_cast<double>(acc.count))) {
      return "AVG(y) differs at row " + std::to_string(r);
    }
  }
  return "";
}

std::string CheckCubeSummary(const Table& result, size_t num_dims,
                             const std::map<uint32_t, uint64_t>& ref_cells,
                             int64_t rows, int64_t sum_x) {
  if (result.num_columns() != num_dims + 2) return "wrong column count";
  const Column& n_col = result.column(num_dims);
  const Column& s_col = result.column(num_dims + 1);
  if (n_col.type() != DataType::kInt64 || s_col.type() != DataType::kInt64) {
    return "wrong aggregate types";
  }
  const auto& n = n_col.raw<int64_t>();
  const auto& s = s_col.raw<int64_t>();
  std::map<uint32_t, SetSummary> got;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    uint32_t mask = 0;
    for (size_t d = 0; d < num_dims; ++d) {
      if (!result.column(d).IsAll(r)) mask |= 1u << d;
    }
    if (n_col.IsNull(r) || s_col.IsNull(r)) return "NULL aggregate";
    SetSummary& g = got[mask];
    ++g.cells;
    g.count += n[r];
    g.sum_x += s[r];
  }
  if (got.size() != ref_cells.size()) return "wrong number of grouping sets";
  for (const auto& [mask, cells] : ref_cells) {
    auto it = got.find(mask);
    SetSummary want{cells, rows, sum_x};
    if (it == got.end() || !(it->second == want)) {
      return "grouping set " + std::to_string(mask) +
             " differs from the reference (cells, COUNT or SUM)";
    }
  }
  return "";
}

std::string CheckSameAnswer(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return "serial and parallel answers differ in shape";
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    if (x.type() != y.type()) return "column types differ";
    const uint8_t* xs = x.state_codes();
    const uint8_t* ys = y.state_codes();
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (xs[r] != ys[r]) return "ALL/NULL markers differ";
      if (x.IsAll(r) || x.IsNull(r)) continue;
      bool same = true;
      switch (x.type()) {
        case DataType::kString:
          same = x.raw<std::string>()[r] == y.raw<std::string>()[r];
          break;
        case DataType::kInt64:
          same = x.raw<int64_t>()[r] == y.raw<int64_t>()[r];
          break;
        case DataType::kFloat64:
          same = Close(x.raw<double>()[r], y.raw<double>()[r]);
          break;
        default:
          return "unexpected column type";
      }
      if (!same) {
        return "serial and parallel answers differ at row " +
               std::to_string(r) + ", column " + std::to_string(c);
      }
    }
  }
  return "";
}

CsvRows NaiveEvaluate(const RefInput& in, const NaiveQuery& q) {
  struct OutRow {
    std::vector<std::string> fields;
    int64_t first_agg = 0;
  };
  std::vector<OutRow> rows;
  for (uint32_t set : q.sets) {
    uint32_t mask = 0;
    for (size_t i = 0; i < q.dims.size(); ++i) {
      if ((set >> i) & 1) mask |= 1u << q.dims[i];
    }
    for (const auto& [key, acc] : RefGroupBy(in, mask, q.where)) {
      if (q.having && !q.having(acc)) continue;
      OutRow row;
      for (int d : q.dims) {
        row.fields.push_back(key[d] == kAllId ? "ALL" : in.names[d][key[d]]);
      }
      for (size_t a = 0; a < q.aggs.size(); ++a) {
        int64_t v = 0;
        switch (q.aggs[a]) {
          case AggKind::kSumX: v = acc.sum_x; break;
          case AggKind::kCount: v = acc.count; break;
          case AggKind::kMinX: v = acc.min_x; break;
          case AggKind::kMaxX: v = acc.max_x; break;
        }
        if (a == 0) row.first_agg = v;
        row.fields.push_back(std::to_string(v));
      }
      rows.push_back(std::move(row));
    }
  }
  if (q.order_by_first_agg_desc) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const OutRow& a, const OutRow& b) {
                       if (a.first_agg != b.first_agg) {
                         return a.first_agg > b.first_agg;
                       }
                       return a.fields < b.fields;
                     });
  }
  if (q.limit >= 0 && rows.size() > static_cast<size_t>(q.limit)) {
    rows.resize(static_cast<size_t>(q.limit));
  }
  CsvRows out;
  for (OutRow& r : rows) out.push_back(std::move(r.fields));
  return out;
}

std::string CompareRows(CsvRows got, CsvRows want, bool ordered) {
  if (!ordered) {
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
  }
  if (got.size() != want.size()) {
    return "rows " + std::to_string(got.size()) + " != expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      std::string g, w;
      for (const auto& f : got[i]) g += f + ",";
      for (const auto& f : want[i]) w += f + ",";
      return "row " + std::to_string(i) + " is [" + g + "], expected [" + w +
             "]";
    }
  }
  return "";
}

std::string CheckCountRead(const CsvRows& rows, int64_t lower, int64_t upper,
                           int64_t last_seen, int64_t* count) {
  int64_t all = -1;
  int64_t groups = 0;
  for (const auto& row : rows) {
    if (row.size() != 3) return "answer row has " + std::to_string(row.size()) +
                                " fields, expected 3";
    char* end = nullptr;
    int64_t n = std::strtoll(row[1].c_str(), &end, 10);
    if (row[1].empty() || *end != '\0') return "count is not an integer";
    if (row[0] == "ALL") {
      if (all >= 0) return "two ALL rows";
      all = n;
    } else {
      groups += n;
    }
  }
  if (all < 0) all = 0;  // no rows at all: nothing visible yet
  *count = all;
  if (groups != all) {
    return "groups add up to " + std::to_string(groups) + ", ALL row says " +
           std::to_string(all);
  }
  if (all < lower) {
    return "count " + std::to_string(all) + " misses acknowledged rows (" +
           std::to_string(lower) + " acknowledged)";
  }
  if (all > upper) {
    return "count " + std::to_string(all) + " exceeds the " +
           std::to_string(upper) + " rows sent";
  }
  if (all < last_seen) {
    return "count fell from " + std::to_string(last_seen) + " to " +
           std::to_string(all);
  }
  return "";
}

std::string CheckFinalTally(const CsvRows& rows, int64_t want_rows,
                            int64_t want_units) {
  if (rows.size() != 1 || rows[0].size() != 2) {
    return "unexpected answer shape";
  }
  if (rows[0][0] != std::to_string(want_rows) ||
      rows[0][1] != std::to_string(want_units)) {
    return "store holds " + rows[0][0] + " rows / " + rows[0][1] +
           " units; retained windows were sent " + std::to_string(want_rows) +
           " / " + std::to_string(want_units);
  }
  return "";
}

}  // namespace perfbench
