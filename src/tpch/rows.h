// Generic rows exchanged between workers and the coordinator, with Thrift
// binary (de)serialization — partial results are real serialized payloads
// moving through the RPC layer.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "thrift/protocol.h"

namespace hatrpc::tpch {

using Value = std::variant<int64_t, double, std::string>;
using Row = std::vector<Value>;

inline int64_t as_i64(const Value& v) { return std::get<int64_t>(v); }
inline double as_f64(const Value& v) { return std::get<double>(v); }
inline const std::string& as_str(const Value& v) {
  return std::get<std::string>(v);
}

/// Serializes rows as: i32 row-count, then per row a tagged value list.
void write_rows(thrift::TProtocol& p, const std::vector<Row>& rows);
std::vector<std::byte> serialize_rows(const std::vector<Row>& rows);
std::vector<Row> deserialize_rows(std::span<const std::byte> bytes);

/// Hash key over a subset of columns (group-by re-aggregation at merge).
std::string group_key(const Row& row, std::initializer_list<int> cols);

/// Orders rows by the given (column, ascending) pairs; numeric columns
/// compare numerically, strings lexicographically.
void sort_rows(std::vector<Row>& rows,
               std::initializer_list<std::pair<int, bool>> spec);

inline void truncate(std::vector<Row>& rows, size_t k) {
  if (rows.size() > k) rows.resize(k);
}

}  // namespace hatrpc::tpch
