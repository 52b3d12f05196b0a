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

TProtocol::MessageHead TBinaryProtocol::readMessageBegin() {
  uint32_t header = static_cast<uint32_t>(readI32());
  if ((header & kVersionMask) != kVersion1)
    throw TProtocolException(TProtocolException::Kind::kBadVersion,
                             "bad binary protocol version");
  MessageHead h;
  h.type = static_cast<TMessageType>(header & 0xff);
  h.name = readString();
  h.seqid = readI32();
  return h;
}

TProtocol::FieldHead TBinaryProtocol::readFieldBegin() {
  TType type = static_cast<TType>(readByte());
  if (type == TType::kStop) return {TType::kStop, 0};
  int16_t id = readI16();
  return {type, id};
}

TProtocol::MapHead TBinaryProtocol::readMapBegin() {
  TType k = static_cast<TType>(readByte());
  TType v = static_cast<TType>(readByte());
  size_t n = read_size("map");
  return {k, v, static_cast<uint32_t>(n)};
}

TProtocol::ListHead TBinaryProtocol::readListBegin() {
  TType e = static_cast<TType>(readByte());
  size_t n = read_size("list");
  return {e, static_cast<uint32_t>(n)};
}

TProtocol::ListHead TBinaryProtocol::readSetBegin() { return readListBegin(); }

// ===========================================================================
// TCompactProtocol
// ===========================================================================

TCompactProtocol::CType TCompactProtocol::to_compact(TType t) {
  switch (t) {
    case TType::kStop: return CType::kStop;
    case TType::kBool: return CType::kBoolTrue;  // resolved at write time
    case TType::kByte: return CType::kByte;
    case TType::kI16: return CType::kI16;
    case TType::kI32: return CType::kI32;
    case TType::kI64: return CType::kI64;
    case TType::kDouble: return CType::kDouble;
    case TType::kString: return CType::kBinary;
    case TType::kStruct: return CType::kStruct;
    case TType::kMap: return CType::kMap;
    case TType::kSet: return CType::kSet;
    case TType::kList: return CType::kList;
  }
  throw TProtocolException(TProtocolException::Kind::kInvalidData,
                           "bad TType for compact");
}

TType TCompactProtocol::to_ttype(CType c) {
  switch (c) {
    case CType::kStop: return TType::kStop;
    case CType::kBoolTrue:
    case CType::kBoolFalse: return TType::kBool;
    case CType::kByte: return TType::kByte;
    case CType::kI16: return TType::kI16;
    case CType::kI32: return TType::kI32;
    case CType::kI64: return TType::kI64;
    case CType::kDouble: return TType::kDouble;
    case CType::kBinary: return TType::kString;
    case CType::kList: return TType::kList;
    case CType::kSet: return TType::kSet;
    case CType::kMap: return TType::kMap;
    case CType::kStruct: return TType::kStruct;
  }
  throw TProtocolException(TProtocolException::Kind::kInvalidData,
                           "bad compact type");
}

void TCompactProtocol::write_varint(uint64_t v) {
  while (v >= 0x80) {
    uint8_t b = static_cast<uint8_t>((v & 0x7f) | 0x80);
    buf_.write(&b, 1);
    v >>= 7;
  }
  uint8_t b = static_cast<uint8_t>(v);
  buf_.write(&b, 1);
}

uint64_t TCompactProtocol::read_varint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t b;
    buf_.read(&b, 1);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    if (shift > 63)
      throw TProtocolException(TProtocolException::Kind::kInvalidData,
                               "varint too long");
  }
}

void TCompactProtocol::writeMessageBegin(std::string_view name,
                                         TMessageType type, int32_t seqid) {
  uint8_t pid = kProtocolId;
  buf_.write(&pid, 1);
  uint8_t vt = static_cast<uint8_t>((static_cast<uint8_t>(type) << 5) |
                                    (kVersion & 0x1f));
  buf_.write(&vt, 1);
  write_varint(static_cast<uint32_t>(seqid));
  write_varint(name.size());
  buf_.write(name.data(), name.size());
}

void TCompactProtocol::writeStructBegin(std::string_view) {
  last_field_stack_.push_back(last_field_);
  last_field_ = 0;
}

void TCompactProtocol::writeStructEnd() {
  last_field_ = last_field_stack_.back();
  last_field_stack_.pop_back();
}

void TCompactProtocol::writeFieldBegin(TType type, int16_t id) {
  if (type == TType::kBool) {
    bool_field_pending_ = true;
    bool_field_id_ = id;
    return;  // header written together with the value
  }
  uint8_t ct = static_cast<uint8_t>(to_compact(type));
  int16_t delta = static_cast<int16_t>(id - last_field_);
  if (delta > 0 && delta <= 15) {
    uint8_t b = static_cast<uint8_t>((delta << 4) | ct);
    buf_.write(&b, 1);
  } else {
    buf_.write(&ct, 1);
    write_varint(zigzag(id));
  }
  last_field_ = id;
}

void TCompactProtocol::writeFieldStop() {
  uint8_t b = 0;
  buf_.write(&b, 1);
}

void TCompactProtocol::writeBool(bool v) {
  CType ct = v ? CType::kBoolTrue : CType::kBoolFalse;
  if (bool_field_pending_) {
    bool_field_pending_ = false;
    int16_t delta = static_cast<int16_t>(bool_field_id_ - last_field_);
    if (delta > 0 && delta <= 15) {
      uint8_t b = static_cast<uint8_t>((delta << 4) |
                                       static_cast<uint8_t>(ct));
      buf_.write(&b, 1);
    } else {
      uint8_t b = static_cast<uint8_t>(ct);
      buf_.write(&b, 1);
      write_varint(zigzag(bool_field_id_));
    }
    last_field_ = bool_field_id_;
  } else {
    uint8_t b = v ? 1 : 0;  // bool inside a container
    buf_.write(&b, 1);
  }
}

void TCompactProtocol::writeByte(int8_t v) { buf_.write(&v, 1); }
void TCompactProtocol::writeI16(int16_t v) { write_varint(zigzag(v)); }
void TCompactProtocol::writeI32(int32_t v) { write_varint(zigzag(v)); }
void TCompactProtocol::writeI64(int64_t v) { write_varint(zigzag(v)); }

void TCompactProtocol::writeDouble(double v) {
  uint64_t bits = std::bit_cast<uint64_t>(v);
  buf_.write(&bits, 8);  // little-endian per compact spec
}

void TCompactProtocol::writeString(std::string_view v) {
  write_varint(v.size());
  buf_.write(v.data(), v.size());
}

void TCompactProtocol::writeMapBegin(TType key, TType val, uint32_t size) {
  write_varint(size);
  if (size > 0) {
    uint8_t kv = static_cast<uint8_t>(
        (static_cast<uint8_t>(to_compact(key)) << 4) |
        static_cast<uint8_t>(to_compact(val)));
    buf_.write(&kv, 1);
  }
}

void TCompactProtocol::writeListBegin(TType elem, uint32_t size) {
  uint8_t et = static_cast<uint8_t>(to_compact(elem));
  if (size <= 14) {
    uint8_t b = static_cast<uint8_t>((size << 4) | et);
    buf_.write(&b, 1);
  } else {
    uint8_t b = static_cast<uint8_t>(0xf0 | et);
    buf_.write(&b, 1);
    write_varint(size);
  }
}

void TCompactProtocol::writeSetBegin(TType elem, uint32_t size) {
  writeListBegin(elem, size);
}

TProtocol::MessageHead TCompactProtocol::readMessageBegin() {
  uint8_t pid;
  buf_.read(&pid, 1);
  if (pid != kProtocolId)
    throw TProtocolException(TProtocolException::Kind::kBadVersion,
                             "bad compact protocol id");
  uint8_t vt;
  buf_.read(&vt, 1);
  if ((vt & 0x1f) != kVersion)
    throw TProtocolException(TProtocolException::Kind::kBadVersion,
                             "bad compact version");
  MessageHead h;
  h.type = static_cast<TMessageType>((vt >> 5) & 0x7);
  h.seqid = static_cast<int32_t>(read_varint());
  size_t n = read_varint();
  h.name = buf_.read_string(n);
  return h;
}

void TCompactProtocol::readStructBegin() {
  last_field_stack_.push_back(last_field_);
  last_field_ = 0;
}

void TCompactProtocol::readStructEnd() {
  last_field_ = last_field_stack_.back();
  last_field_stack_.pop_back();
}

TProtocol::FieldHead TCompactProtocol::readFieldBegin() {
  uint8_t b;
  buf_.read(&b, 1);
  CType ct = static_cast<CType>(b & 0x0f);
  if (ct == CType::kStop) return {TType::kStop, 0};
  int16_t id;
  uint8_t delta = b >> 4;
  if (delta != 0) {
    id = static_cast<int16_t>(last_field_ + delta);
  } else {
    id = static_cast<int16_t>(unzigzag(read_varint()));
  }
  last_field_ = id;
  if (ct == CType::kBoolTrue || ct == CType::kBoolFalse) {
    bool_value_pending_ = true;
    bool_value_ = (ct == CType::kBoolTrue);
  }
  return {to_ttype(ct), id};
}

bool TCompactProtocol::readBool() {
  if (bool_value_pending_) {
    bool_value_pending_ = false;
    return bool_value_;
  }
  uint8_t b;
  buf_.read(&b, 1);
  return b == 1;
}

int8_t TCompactProtocol::readByte() {
  int8_t v;
  buf_.read(&v, 1);
  return v;
}

int16_t TCompactProtocol::readI16() {
  return static_cast<int16_t>(unzigzag(read_varint()));
}

int32_t TCompactProtocol::readI32() {
  return static_cast<int32_t>(unzigzag(read_varint()));
}

int64_t TCompactProtocol::readI64() { return unzigzag(read_varint()); }

double TCompactProtocol::readDouble() {
  uint64_t bits;
  buf_.read(&bits, 8);
  return std::bit_cast<double>(bits);
}

size_t TCompactProtocol::read_size(const char* what) {
  uint64_t n = read_varint();
  check_size(n, what);
  return n;
}

std::string TCompactProtocol::readString() {
  return buf_.read_string(read_size("string"));
}

void TCompactProtocol::skipString() { buf_.consume(read_size("string")); }

TProtocol::MapHead TCompactProtocol::readMapBegin() {
  size_t size = read_size("map");
  if (size == 0) return {TType::kStop, TType::kStop, 0};
  uint8_t kv;
  buf_.read(&kv, 1);
  return {to_ttype(static_cast<CType>(kv >> 4)),
          to_ttype(static_cast<CType>(kv & 0x0f)), static_cast<uint32_t>(size)};
}

TProtocol::ListHead TCompactProtocol::readListBegin() {
  uint8_t b;
  buf_.read(&b, 1);
  CType et = static_cast<CType>(b & 0x0f);
  uint64_t size = b >> 4;
  if (size == 15) size = read_varint();
  check_size(size, "list");
  return {to_ttype(et), static_cast<uint32_t>(size)};
}

TProtocol::ListHead TCompactProtocol::readSetBegin() {
  return readListBegin();
}

}  // namespace hatrpc::thrift
