#include "tpch/rows.h"

#include <algorithm>

namespace hatrpc::tpch {

namespace {
constexpr int8_t kTagI64 = 1;
constexpr int8_t kTagF64 = 2;
constexpr int8_t kTagStr = 3;
}  // namespace

void write_rows(thrift::TProtocol& p, const std::vector<Row>& rows) {
  p.writeI32(static_cast<int32_t>(rows.size()));
  for (const Row& row : rows) {
    p.writeI32(static_cast<int32_t>(row.size()));
    for (const Value& v : row) {
      if (std::holds_alternative<int64_t>(v)) {
        p.writeByte(kTagI64);
        p.writeI64(std::get<int64_t>(v));
      } else if (std::holds_alternative<double>(v)) {
        p.writeByte(kTagF64);
        p.writeDouble(std::get<double>(v));
      } else {
        p.writeByte(kTagStr);
        p.writeString(std::get<std::string>(v));
      }
    }
  }
}

std::vector<std::byte> serialize_rows(const std::vector<Row>& rows) {
  thrift::TMemoryBuffer buf;
  thrift::TBinaryProtocol p(buf);
  write_rows(p, rows);
  return buf.take();
}

std::vector<Row> deserialize_rows(std::span<const std::byte> bytes) {
  thrift::TMemoryBuffer buf = thrift::TMemoryBuffer::wrap(bytes);
  thrift::TBinaryProtocol p(buf);
  int32_t n = p.readI32();
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    int32_t cols = p.readI32();
    Row row;
    row.reserve(static_cast<size_t>(cols));
    for (int32_t c = 0; c < cols; ++c) {
      switch (p.readByte()) {
        case kTagI64: row.emplace_back(p.readI64()); break;
        case kTagF64: row.emplace_back(p.readDouble()); break;
        case kTagStr: row.emplace_back(p.readString()); break;
        default:
          throw thrift::TProtocolException(
              thrift::TProtocolException::Kind::kInvalidData, "bad row tag");
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string group_key(const Row& row, std::initializer_list<int> cols) {
  std::string key;
  for (int c : cols) {
    const Value& v = row[static_cast<size_t>(c)];
    if (std::holds_alternative<int64_t>(v)) {
      key += std::to_string(std::get<int64_t>(v));
    } else if (std::holds_alternative<double>(v)) {
      key += std::to_string(std::get<double>(v));
    } else {
      key += std::get<std::string>(v);
    }
    key += '\x1f';
  }
  return key;
}

void sort_rows(std::vector<Row>& rows,
               std::initializer_list<std::pair<int, bool>> spec) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Row& a, const Row& b) {
    for (auto [col, asc] : spec) {
      const Value& x = a[static_cast<size_t>(col)];
      const Value& y = b[static_cast<size_t>(col)];
      if (x == y) continue;
      bool lt;
      if (std::holds_alternative<std::string>(x)) {
        lt = std::get<std::string>(x) < std::get<std::string>(y);
      } else {
        double dx = std::holds_alternative<int64_t>(x)
                        ? double(std::get<int64_t>(x))
                        : std::get<double>(x);
        double dy = std::holds_alternative<int64_t>(y)
                        ? double(std::get<int64_t>(y))
                        : std::get<double>(y);
        if (dx == dy) continue;
        lt = dx < dy;
      }
      return asc ? lt : !lt;
    }
    return false;
  });
}

}  // namespace hatrpc::tpch
