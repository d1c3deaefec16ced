#ifndef DATACUBE_TABLE_SORT_H_
#define DATACUBE_TABLE_SORT_H_

#include <cstddef>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/table/table.h"

namespace datacube {

/// One ORDER BY key.
struct SortKey {
  size_t column = 0;
  bool ascending = true;
};

/// Stable-sorts row indices of `table` by `keys` using the Value total order
/// (NULL < ALL < values), read from the columns' typed buffers without
/// building a Value per comparison. Returns the permutation; apply with
/// Table::TakeRows.
Result<std::vector<size_t>> SortIndices(const Table& table,
                                        const std::vector<SortKey>& keys);

/// Convenience: sorted copy of the table.
Result<Table> SortTable(const Table& table, const std::vector<SortKey>& keys);

}  // namespace datacube

#endif  // DATACUBE_TABLE_SORT_H_
