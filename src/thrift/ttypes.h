// Core Thrift wire-model types: field types, message types, and the
// exception hierarchy — mirroring Apache Thrift's C++ library so generated
// code and hand-written services read identically to upstream Thrift.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hatrpc::thrift {

/// Thrift field types (wire values of the Binary protocol).
enum class TType : uint8_t {
  kStop = 0,
  kBool = 2,
  kByte = 3,
  kDouble = 4,
  kI16 = 6,
  kI32 = 8,
  kI64 = 10,
  kString = 11,
  kStruct = 12,
  kMap = 13,
  kSet = 14,
  kList = 15,
};

enum class TMessageType : uint8_t {
  kCall = 1,
  kReply = 2,
  kException = 3,
  kOneway = 4,
};

class TException : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TTransportException : public TException {
 public:
  enum class Kind { kUnknown, kNotOpen, kTimedOut, kEndOfFile, kCorrupted };
  TTransportException(Kind kind, const std::string& what)
      : TException(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

class TProtocolException : public TException {
 public:
  enum class Kind {
    kUnknown,
    kInvalidData,
    kBadVersion,
    kSizeLimit,
    kDepthLimit,
  };
  TProtocolException(Kind kind, const std::string& what)
      : TException(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Server-to-client error reply, serialized as a Thrift struct in an
/// EXCEPTION message (matches TApplicationException on the wire).
class TApplicationException : public TException {
 public:
  enum class Kind : int32_t {
    kUnknown = 0,
    kUnknownMethod = 1,
    kInvalidMessageType = 2,
    kWrongMethodName = 3,
    kBadSequenceId = 4,
    kMissingResult = 5,
    kInternalError = 6,
  };
  TApplicationException(Kind kind, const std::string& what)
      : TException(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

}  // namespace hatrpc::thrift
