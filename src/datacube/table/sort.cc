#include "datacube/table/sort.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace datacube {

namespace {

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

// One sort key read straight from a column's typed buffer and state codes.
// Compare(a, b) orders rows a and b exactly as Value::Compare orders
// GetValue(a) and GetValue(b) — NULL < ALL < values — without building
// either Value. A column holds one concrete type, so no cross-kind case
// arises.
class KeyView {
 public:
  explicit KeyView(const Column& col)
      : type_(col.type()), states_(col.state_codes()) {
    switch (type_) {
      case DataType::kBool:
        data_ = col.raw<uint8_t>().data();
        break;
      case DataType::kInt64:
        data_ = col.raw<int64_t>().data();
        break;
      case DataType::kFloat64:
        data_ = col.raw<double>().data();
        break;
      case DataType::kString:
        data_ = col.raw<std::string>().data();
        break;
      case DataType::kDate:
        data_ = col.raw<Date>().data();
        break;
    }
  }

  int Compare(size_t a, size_t b) const {
    // Column state codes: 0 = value, 1 = NULL, 2 = ALL.
    static constexpr int kStateOrder[3] = {2, 0, 1};
    int sa = kStateOrder[states_[a]], sb = kStateOrder[states_[b]];
    if (sa != sb) return sa < sb ? -1 : 1;
    if (sa != 2) return 0;
    switch (type_) {
      case DataType::kBool:
        return Cmp(At<uint8_t>(a) != 0, At<uint8_t>(b) != 0);
      case DataType::kInt64:
        return Cmp(At<int64_t>(a), At<int64_t>(b));
      case DataType::kFloat64:
        return CompareDoubles(At<double>(a), At<double>(b));
      case DataType::kString:
        return Cmp(At<std::string>(a), At<std::string>(b));
      case DataType::kDate:
        return Cmp(At<Date>(a).days_since_epoch, At<Date>(b).days_since_epoch);
    }
    return 0;
  }

 private:
  template <typename T>
  const T& At(size_t row) const {
    return static_cast<const T*>(data_)[row];
  }

  DataType type_;
  const uint8_t* states_;
  const void* data_ = nullptr;
};

}  // namespace

Result<std::vector<size_t>> SortIndices(const Table& table,
                                        const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    if (k.column >= table.num_columns()) {
      return Status::OutOfRange("sort key column out of range");
    }
  }
  std::vector<KeyView> views;
  views.reserve(keys.size());
  for (const SortKey& k : keys) views.emplace_back(table.column(k.column));
  std::vector<size_t> indices(table.num_rows());
  std::iota(indices.begin(), indices.end(), 0);
  std::stable_sort(indices.begin(), indices.end(),
                   [&](size_t a, size_t b) {
                     for (size_t i = 0; i < keys.size(); ++i) {
                       int cmp = views[i].Compare(a, b);
                       if (cmp != 0) {
                         return keys[i].ascending ? cmp < 0 : cmp > 0;
                       }
                     }
                     return false;
                   });
  return indices;
}

Result<Table> SortTable(const Table& table, const std::vector<SortKey>& keys) {
  DATACUBE_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                            SortIndices(table, keys));
  return table.TakeRows(indices);
}

}  // namespace datacube
