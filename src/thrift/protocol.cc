#include "thrift/protocol.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace hatrpc::thrift {

namespace {

template <class T>
T byteswap_if_le(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    auto bytes = std::bit_cast<std::array<std::byte, sizeof(T)>>(v);
    std::reverse(bytes.begin(), bytes.end());
    return std::bit_cast<T>(bytes);
  }
  return v;
}

}  // namespace

void TProtocol::skip_nested(TType type, int depth) {
  switch (type) {
    case TType::kBool: readBool(); return;
    case TType::kByte: readByte(); return;
    case TType::kI16: readI16(); return;
    case TType::kI32: readI32(); return;
    case TType::kI64: readI64(); return;
    case TType::kDouble: readDouble(); return;
    case TType::kString: skipString(); return;
    default: break;
  }
  if (depth <= 0)
    throw TProtocolException(TProtocolException::Kind::kDepthLimit,
                             "skip: nesting exceeds the depth limit");
  switch (type) {
    case TType::kStruct: {
      readStructBegin();
      while (true) {
        FieldHead f = readFieldBegin();
        if (f.type == TType::kStop) break;
        skip_nested(f.type, depth - 1);
        readFieldEnd();
      }
      readStructEnd();
      return;
    }
    case TType::kMap: {
      MapHead m = readMapBegin();
      for (uint32_t i = 0; i < m.size; ++i) {
        skip_nested(m.key, depth - 1);
        skip_nested(m.val, depth - 1);
      }
      readMapEnd();
      return;
    }
    case TType::kList: {
      ListHead l = readListBegin();
      for (uint32_t i = 0; i < l.size; ++i) skip_nested(l.elem, depth - 1);
      readListEnd();
      return;
    }
    case TType::kSet: {
      ListHead l = readSetBegin();
      for (uint32_t i = 0; i < l.size; ++i) skip_nested(l.elem, depth - 1);
      readSetEnd();
      return;
    }
    default:
      throw TProtocolException(TProtocolException::Kind::kInvalidData,
                               "skip: bad TType");
  }
}

// ===========================================================================
// TBinaryProtocol
// ===========================================================================

void TBinaryProtocol::writeByte(int8_t v) { buf_.write(&v, 1); }

void TBinaryProtocol::writeI16(int16_t v) {
  int16_t be = byteswap_if_le(v);
  buf_.write(&be, 2);
}

void TBinaryProtocol::writeI32(int32_t v) {
  int32_t be = byteswap_if_le(v);
  buf_.write(&be, 4);
}

void TBinaryProtocol::writeI64(int64_t v) {
  int64_t be = byteswap_if_le(v);
  buf_.write(&be, 8);
}

void TBinaryProtocol::writeDouble(double v) {
  writeI64(std::bit_cast<int64_t>(v));
}

void TBinaryProtocol::writeBool(bool v) { writeByte(v ? 1 : 0); }

void TBinaryProtocol::writeString(std::string_view v) {
  writeI32(static_cast<int32_t>(v.size()));
  buf_.write(v.data(), v.size());
}

void TBinaryProtocol::writeMessageBegin(std::string_view name,
                                        TMessageType type, int32_t seqid) {
  writeI32(static_cast<int32_t>(kVersion1 | static_cast<uint32_t>(type)));
  writeString(name);
  writeI32(seqid);
}

void TBinaryProtocol::writeFieldBegin(TType type, int16_t id) {
  writeByte(static_cast<int8_t>(type));
  writeI16(id);
}

void TBinaryProtocol::writeFieldStop() {
  writeByte(static_cast<int8_t>(TType::kStop));
}

void TBinaryProtocol::writeMapBegin(TType key, TType val, uint32_t size) {
  writeByte(static_cast<int8_t>(key));
  writeByte(static_cast<int8_t>(val));
  writeI32(static_cast<int32_t>(size));
}

void TBinaryProtocol::writeListBegin(TType elem, uint32_t size) {
  writeByte(static_cast<int8_t>(elem));
  writeI32(static_cast<int32_t>(size));
}

void TBinaryProtocol::writeSetBegin(TType elem, uint32_t size) {
  writeListBegin(elem, size);
}

int8_t TBinaryProtocol::readByte() {
  int8_t v;
  buf_.read(&v, 1);
  return v;
}

int16_t TBinaryProtocol::readI16() {
  int16_t v;
  buf_.read(&v, 2);
  return byteswap_if_le(v);
}

int32_t TBinaryProtocol::readI32() {
  int32_t v;
  buf_.read(&v, 4);
  return byteswap_if_le(v);
}

int64_t TBinaryProtocol::readI64() {
  int64_t v;
  buf_.read(&v, 8);
  return byteswap_if_le(v);
}

double TBinaryProtocol::readDouble() {
  return std::bit_cast<double>(readI64());
}

bool TBinaryProtocol::readBool() { return readByte() != 0; }

size_t TBinaryProtocol::read_size(const char* what) {
  int32_t n = readI32();
  if (n < 0)
    throw TProtocolException(TProtocolException::Kind::kInvalidData,
                             std::string("negative ") + what + " size");
  check_size(static_cast<size_t>(n), what);
  return static_cast<size_t>(n);
}

std::string TBinaryProtocol::readString() {
  return buf_.read_string(read_size("string"));
}

void TBinaryProtocol::skipString() { buf_.consume(read_size("string")); }

TType TBinaryProtocol::read_type(const char* what) {
  const int8_t b = readByte();
  switch (static_cast<TType>(b)) {
    case TType::kStop:
    case TType::kBool:
    case TType::kByte:
    case TType::kDouble:
    case TType::kI16:
    case TType::kI32:
    case TType::kI64:
    case TType::kString:
    case TType::kStruct:
    case TType::kMap:
    case TType::kSet:
    case TType::kList:
      return static_cast<TType>(b);
  }
  throw TProtocolException(TProtocolException::Kind::kInvalidData,
                           std::string("bad ") + what + " type " +
                               std::to_string(b));
}

TProtocol::MessageHead TBinaryProtocol::readMessageBegin() {
  uint32_t header = static_cast<uint32_t>(readI32());
  if ((header & kVersionMask) != kVersion1)
    throw TProtocolException(TProtocolException::Kind::kBadVersion,
                             "bad binary protocol version");
  const uint32_t type = header & 0xff;
  if (type < static_cast<uint32_t>(TMessageType::kCall) ||
      type > static_cast<uint32_t>(TMessageType::kOneway))
    throw TProtocolException(TProtocolException::Kind::kInvalidData,
                             "bad message type " + std::to_string(type));
  MessageHead h;
  h.type = static_cast<TMessageType>(type);
  h.name = readString();
  h.seqid = readI32();
  return h;
}

TProtocol::FieldHead TBinaryProtocol::readFieldBegin() {
  TType type = read_type("field");
  if (type == TType::kStop) return {TType::kStop, 0};
  int16_t id = readI16();
  return {type, id};
}

TProtocol::MapHead TBinaryProtocol::readMapBegin() {
  TType k = read_type("map key");
  TType v = read_type("map value");
  size_t n = read_size("map");
  return {k, v, static_cast<uint32_t>(n)};
}

TProtocol::ListHead TBinaryProtocol::readListBegin() {
  TType e = read_type("element");
  size_t n = read_size("list");
  return {e, static_cast<uint32_t>(n)};
}

TProtocol::ListHead TBinaryProtocol::readSetBegin() { return readListBegin(); }

}  // namespace hatrpc::thrift
