// TProtocol: the serialization interface generated code writes through,
// and its one encoding, strict Thrift Binary (paper Fig. 2).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "thrift/buffer.h"
#include "thrift/ttypes.h"

namespace hatrpc::thrift {

class TProtocol {
 public:
  explicit TProtocol(TMemoryBuffer& buf) : buf_(buf) {}
  virtual ~TProtocol() = default;

  // --- writing -------------------------------------------------------------
  virtual void writeMessageBegin(std::string_view name, TMessageType type,
                                 int32_t seqid) = 0;
  virtual void writeMessageEnd() {}
  virtual void writeStructBegin(std::string_view name) = 0;
  virtual void writeStructEnd() = 0;
  virtual void writeFieldBegin(TType type, int16_t id) = 0;
  virtual void writeFieldEnd() {}
  virtual void writeFieldStop() = 0;
  virtual void writeMapBegin(TType key, TType val, uint32_t size) = 0;
  virtual void writeMapEnd() {}
  virtual void writeListBegin(TType elem, uint32_t size) = 0;
  virtual void writeListEnd() {}
  virtual void writeSetBegin(TType elem, uint32_t size) = 0;
  virtual void writeSetEnd() {}
  virtual void writeBool(bool v) = 0;
  virtual void writeByte(int8_t v) = 0;
  virtual void writeI16(int16_t v) = 0;
  virtual void writeI32(int32_t v) = 0;
  virtual void writeI64(int64_t v) = 0;
  virtual void writeDouble(double v) = 0;
  virtual void writeString(std::string_view v) = 0;
  void writeBinary(std::string_view v) { writeString(v); }

  // --- reading ---------------------------------------------------------------
  struct MessageHead {
    std::string name;
    TMessageType type;
    int32_t seqid;
  };
  virtual MessageHead readMessageBegin() = 0;
  virtual void readMessageEnd() {}
  virtual void readStructBegin() = 0;
  virtual void readStructEnd() = 0;
  struct FieldHead {
    TType type;
    int16_t id;
  };
  virtual FieldHead readFieldBegin() = 0;
  virtual void readFieldEnd() {}
  struct MapHead {
    TType key;
    TType val;
    uint32_t size;
  };
  virtual MapHead readMapBegin() = 0;
  virtual void readMapEnd() {}
  struct ListHead {
    TType elem;
    uint32_t size;
  };
  virtual ListHead readListBegin() = 0;
  virtual void readListEnd() {}
  virtual ListHead readSetBegin() = 0;
  virtual void readSetEnd() {}
  virtual bool readBool() = 0;
  virtual int8_t readByte() = 0;
  virtual int16_t readI16() = 0;
  virtual int32_t readI32() = 0;
  virtual int64_t readI64() = 0;
  virtual double readDouble() = 0;
  virtual std::string readString() = 0;
  std::string readBinary() { return readString(); }

  /// Skips a value of the given type (unknown-field tolerance). Containers
  /// nested deeper than kMaxSkipDepth throw instead of exhausting the stack.
  void skip(TType type) { skip_nested(type, kMaxSkipDepth); }
  static constexpr int kMaxSkipDepth = 64;

  TMemoryBuffer& buffer() { return buf_; }

 protected:
  /// Skips a string without materializing it.
  virtual void skipString() { readString(); }

  /// Rejects a container or string that claims more entries or bytes than
  /// the message has left (each entry takes at least one byte).
  void check_size(size_t claimed, const char* what) const {
    if (claimed > buf_.readable())
      throw TProtocolException(TProtocolException::Kind::kSizeLimit,
                               std::string(what) + " size exceeds the message");
  }

  TMemoryBuffer& buf_;

 private:
  void skip_nested(TType type, int depth);
};

/// Strict Thrift Binary protocol (version word 0x8001____).
class TBinaryProtocol final : public TProtocol {
 public:
  using TProtocol::TProtocol;

  void writeMessageBegin(std::string_view name, TMessageType type,
                         int32_t seqid) override;
  void writeStructBegin(std::string_view) override {}
  void writeStructEnd() override {}
  void writeFieldBegin(TType type, int16_t id) override;
  void writeFieldStop() override;
  void writeMapBegin(TType key, TType val, uint32_t size) override;
  void writeListBegin(TType elem, uint32_t size) override;
  void writeSetBegin(TType elem, uint32_t size) override;
  void writeBool(bool v) override;
  void writeByte(int8_t v) override;
  void writeI16(int16_t v) override;
  void writeI32(int32_t v) override;
  void writeI64(int64_t v) override;
  void writeDouble(double v) override;
  void writeString(std::string_view v) override;

  MessageHead readMessageBegin() override;
  void readStructBegin() override {}
  void readStructEnd() override {}
  FieldHead readFieldBegin() override;
  MapHead readMapBegin() override;
  ListHead readListBegin() override;
  ListHead readSetBegin() override;
  bool readBool() override;
  int8_t readByte() override;
  int16_t readI16() override;
  int32_t readI32() override;
  int64_t readI64() override;
  double readDouble() override;
  std::string readString() override;

 protected:
  void skipString() override;

 private:
  /// Reads an i32 size and checks it against the bytes left.
  size_t read_size(const char* what);
  /// Reads a type byte and rejects one that is not a TType.
  TType read_type(const char* what);

  static constexpr uint32_t kVersion1 = 0x80010000;
  static constexpr uint32_t kVersionMask = 0xffff0000;
};

}  // namespace hatrpc::thrift
