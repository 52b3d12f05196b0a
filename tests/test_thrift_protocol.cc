// Serialization tests: Binary protocol round trips for every scalar type,
// strings, containers, nested structs, field skipping and message
// envelopes, plus the decoder's defences against hostile input.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "sim/rng.h"

#include "thrift/protocol.h"

namespace hatrpc::thrift {
namespace {

enum class Proto { kBinary };

std::unique_ptr<TProtocol> make_proto(Proto, TMemoryBuffer& buf) {
  return std::make_unique<TBinaryProtocol>(buf);
}

class ProtocolRoundTrip : public ::testing::TestWithParam<Proto> {};

TEST_P(ProtocolRoundTrip, Scalars) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeBool(true);
  p->writeBool(false);
  p->writeByte(-7);
  p->writeI16(-12345);
  p->writeI32(123456789);
  p->writeI64(-9876543210123LL);
  p->writeDouble(3.141592653589793);
  p->writeString("hello thrift");
  p->writeString("");

  EXPECT_TRUE(p->readBool());
  EXPECT_FALSE(p->readBool());
  EXPECT_EQ(p->readByte(), -7);
  EXPECT_EQ(p->readI16(), -12345);
  EXPECT_EQ(p->readI32(), 123456789);
  EXPECT_EQ(p->readI64(), -9876543210123LL);
  EXPECT_DOUBLE_EQ(p->readDouble(), 3.141592653589793);
  EXPECT_EQ(p->readString(), "hello thrift");
  EXPECT_EQ(p->readString(), "");
}

TEST_P(ProtocolRoundTrip, ExtremeValues) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeI16(std::numeric_limits<int16_t>::min());
  p->writeI16(std::numeric_limits<int16_t>::max());
  p->writeI32(std::numeric_limits<int32_t>::min());
  p->writeI32(std::numeric_limits<int32_t>::max());
  p->writeI64(std::numeric_limits<int64_t>::min());
  p->writeI64(std::numeric_limits<int64_t>::max());
  p->writeDouble(-0.0);
  p->writeDouble(std::numeric_limits<double>::infinity());
  p->writeDouble(std::numeric_limits<double>::denorm_min());

  EXPECT_EQ(p->readI16(), std::numeric_limits<int16_t>::min());
  EXPECT_EQ(p->readI16(), std::numeric_limits<int16_t>::max());
  EXPECT_EQ(p->readI32(), std::numeric_limits<int32_t>::min());
  EXPECT_EQ(p->readI32(), std::numeric_limits<int32_t>::max());
  EXPECT_EQ(p->readI64(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(p->readI64(), std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(std::signbit(p->readDouble()));
  EXPECT_TRUE(std::isinf(p->readDouble()));
  EXPECT_EQ(p->readDouble(), std::numeric_limits<double>::denorm_min());
}

TEST_P(ProtocolRoundTrip, MessageEnvelope) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeMessageBegin("MultiGET", TMessageType::kCall, 42);
  p->writeMessageEnd();
  auto h = p->readMessageBegin();
  EXPECT_EQ(h.name, "MultiGET");
  EXPECT_EQ(h.type, TMessageType::kCall);
  EXPECT_EQ(h.seqid, 42);
}

TEST_P(ProtocolRoundTrip, StructWithFields) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeStructBegin("KV");
  p->writeFieldBegin(TType::kString, 1);
  p->writeString("key-abc");
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI64, 2);
  p->writeI64(999);
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kBool, 3);
  p->writeBool(true);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();

  p->readStructBegin();
  auto f1 = p->readFieldBegin();
  EXPECT_EQ(f1.type, TType::kString);
  EXPECT_EQ(f1.id, 1);
  EXPECT_EQ(p->readString(), "key-abc");
  p->readFieldEnd();
  auto f2 = p->readFieldBegin();
  EXPECT_EQ(f2.type, TType::kI64);
  EXPECT_EQ(f2.id, 2);
  EXPECT_EQ(p->readI64(), 999);
  p->readFieldEnd();
  auto f3 = p->readFieldBegin();
  EXPECT_EQ(f3.type, TType::kBool);
  EXPECT_EQ(f3.id, 3);
  EXPECT_TRUE(p->readBool());
  p->readFieldEnd();
  auto fstop = p->readFieldBegin();
  EXPECT_EQ(fstop.type, TType::kStop);
  p->readStructEnd();
}

TEST_P(ProtocolRoundTrip, NonMonotonicFieldIds) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeStructBegin("S");
  p->writeFieldBegin(TType::kI32, 10);
  p->writeI32(1);
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI32, 3);
  p->writeI32(2);
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI32, 300);
  p->writeI32(3);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();

  p->readStructBegin();
  EXPECT_EQ(p->readFieldBegin().id, 10);
  EXPECT_EQ(p->readI32(), 1);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().id, 3);
  EXPECT_EQ(p->readI32(), 2);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().id, 300);
  EXPECT_EQ(p->readI32(), 3);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
  p->readStructEnd();
}

TEST_P(ProtocolRoundTrip, Containers) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeListBegin(TType::kI32, 3);
  for (int32_t v : {7, 8, 9}) p->writeI32(v);
  p->writeListEnd();
  p->writeMapBegin(TType::kString, TType::kI64, 2);
  p->writeString("a");
  p->writeI64(1);
  p->writeString("b");
  p->writeI64(2);
  p->writeMapEnd();
  p->writeSetBegin(TType::kByte, 20);
  for (int i = 0; i < 20; ++i) p->writeByte(static_cast<int8_t>(i));
  p->writeSetEnd();

  auto l = p->readListBegin();
  EXPECT_EQ(l.elem, TType::kI32);
  EXPECT_EQ(l.size, 3u);
  EXPECT_EQ(p->readI32(), 7);
  EXPECT_EQ(p->readI32(), 8);
  EXPECT_EQ(p->readI32(), 9);
  p->readListEnd();
  auto m = p->readMapBegin();
  EXPECT_EQ(m.key, TType::kString);
  EXPECT_EQ(m.val, TType::kI64);
  EXPECT_EQ(m.size, 2u);
  EXPECT_EQ(p->readString(), "a");
  EXPECT_EQ(p->readI64(), 1);
  EXPECT_EQ(p->readString(), "b");
  EXPECT_EQ(p->readI64(), 2);
  p->readMapEnd();
  auto s = p->readSetBegin();
  EXPECT_EQ(s.elem, TType::kByte);
  EXPECT_EQ(s.size, 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(p->readByte(), i);
  p->readSetEnd();
}

TEST_P(ProtocolRoundTrip, EmptyMap) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeMapBegin(TType::kString, TType::kI32, 0);
  p->writeMapEnd();
  p->writeI32(77);  // sentinel to prove position is right
  auto m = p->readMapBegin();
  EXPECT_EQ(m.size, 0u);
  p->readMapEnd();
  EXPECT_EQ(p->readI32(), 77);
}

TEST_P(ProtocolRoundTrip, NestedStructs) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeStructBegin("Outer");
  p->writeFieldBegin(TType::kStruct, 1);
  p->writeStructBegin("Inner");
  p->writeFieldBegin(TType::kI32, 5);
  p->writeI32(55);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI32, 2);
  p->writeI32(22);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();

  p->readStructBegin();
  auto f = p->readFieldBegin();
  EXPECT_EQ(f.type, TType::kStruct);
  p->readStructBegin();
  EXPECT_EQ(p->readFieldBegin().id, 5);
  EXPECT_EQ(p->readI32(), 55);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
  p->readStructEnd();
  p->readFieldEnd();
  // The outer struct's next field follows the nested struct.
  auto f2 = p->readFieldBegin();
  EXPECT_EQ(f2.id, 2);
  EXPECT_EQ(p->readI32(), 22);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
  p->readStructEnd();
}

TEST_P(ProtocolRoundTrip, SkipUnknownFields) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeStructBegin("S");
  p->writeFieldBegin(TType::kList, 1);
  p->writeListBegin(TType::kString, 2);
  p->writeString("skip-me");
  p->writeString("me-too");
  p->writeListEnd();
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kStruct, 2);
  p->writeStructBegin("Inner");
  p->writeFieldBegin(TType::kDouble, 1);
  p->writeDouble(1.5);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI32, 3);
  p->writeI32(42);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();

  p->readStructBegin();
  auto f1 = p->readFieldBegin();
  p->skip(f1.type);
  p->readFieldEnd();
  auto f2 = p->readFieldBegin();
  p->skip(f2.type);
  p->readFieldEnd();
  auto f3 = p->readFieldBegin();
  EXPECT_EQ(f3.id, 3);
  EXPECT_EQ(p->readI32(), 42);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolRoundTrip,
                         ::testing::Values(Proto::kBinary),
                         [](const auto&) { return "Binary"; });

TEST(BinaryProtocol, RejectsBadVersion) {
  TMemoryBuffer buf;
  TBinaryProtocol w(buf);
  w.writeI32(0x12345678);  // not a strict-mode header
  w.writeString("x");
  w.writeI32(0);
  TBinaryProtocol r(buf);
  EXPECT_THROW(r.readMessageBegin(), TProtocolException);
}

TEST(BinaryProtocol, RejectsNegativeStringLength) {
  TMemoryBuffer buf;
  TBinaryProtocol w(buf);
  w.writeI32(-5);
  TBinaryProtocol r(buf);
  EXPECT_THROW(r.readString(), TProtocolException);
}

TEST(MemoryBuffer, UnderflowThrows) {
  TMemoryBuffer buf;
  buf.write("ab", 2);
  char out[4];
  EXPECT_THROW(buf.read(out, 4), TTransportException);
}

TEST(MemoryBuffer, WrapGivesReadAccess) {
  std::string s = "wrapped";
  auto b = TMemoryBuffer::wrap(
      {reinterpret_cast<const std::byte*>(s.data()), s.size()});
  EXPECT_EQ(b.read_string(7), "wrapped");
  EXPECT_EQ(b.readable(), 0u);
}

std::vector<std::byte> bytes_of(std::string_view s) {
  auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

TEST(MemoryBuffer, WrapIsAViewNotACopy) {
  const std::vector<std::byte> x = bytes_of("viewed in place");
  TMemoryBuffer b = TMemoryBuffer::wrap(x);
  EXPECT_EQ(b.view().data(), x.data());
  EXPECT_EQ(b.view().size(), x.size());
}

TEST(MemoryBuffer, WriteToAWrappedBufferSpillsAndLeavesTheSourceUntouched) {
  const std::vector<std::byte> x = bytes_of("source");
  TMemoryBuffer b = TMemoryBuffer::wrap(x);
  b.write("+tail", 5);
  EXPECT_NE(b.view().data(), x.data());
  EXPECT_EQ(b.read_string(11), "source+tail");
  EXPECT_EQ(x, bytes_of("source"));
}

TEST(MemoryBuffer, TrailerAfterALargeStringDoesNotReallocate) {
  const std::string blob(128 << 10, 'p');
  TMemoryBuffer buf;
  TBinaryProtocol p(buf);
  p.writeStructBegin("Stream_args");
  p.writeFieldBegin(TType::kString, 1);
  p.writeString(blob);
  const std::byte* at = buf.view().data();
  p.writeFieldEnd();
  p.writeFieldStop();
  p.writeStructEnd();
  EXPECT_EQ(buf.view().data(), at);
}

TEST(MemoryBuffer, ReadStringChecksTheSizeBeforeAllocating) {
  const std::vector<std::byte> x = bytes_of("short");
  TMemoryBuffer b = TMemoryBuffer::wrap(x);
  EXPECT_THROW(b.read_string(0x7fffffff), TTransportException);
  EXPECT_EQ(b.readable(), x.size());
}

/// Writes a message with `write`, then returns the kind of the
/// TProtocolException that `read` throws on it.
TProtocolException::Kind read_error(std::function<void(TProtocol&)> write,
                                    std::function<void(TProtocol&)> read) {
  TMemoryBuffer buf;
  TBinaryProtocol w(buf);
  write(w);
  TBinaryProtocol r(buf);
  try {
    read(r);
  } catch (const TProtocolException& e) {
    return e.kind();
  }
  ADD_FAILURE() << "hostile input was accepted";
  return TProtocolException::Kind::kUnknown;
}

TEST(HostileInput, ClaimedSizesBeyondTheMessageAreRejected) {
  using K = TProtocolException::Kind;
  constexpr uint32_t kHuge = 0x7fffffff;
  // A string header claiming 2 GiB in front of three bytes.
  auto huge_string = [](TProtocol& w) {
    w.writeI32(int32_t(kHuge));
    w.buffer().write("abc", 3);
  };
  EXPECT_EQ(read_error(huge_string, [](TProtocol& r) { r.readString(); }),
            K::kSizeLimit);
  EXPECT_EQ(read_error(huge_string,
                       [](TProtocol& r) { r.skip(TType::kString); }),
            K::kSizeLimit);
  EXPECT_EQ(read_error(
                [](TProtocol& w) {
                  w.writeListBegin(TType::kI64, kHuge);
                  w.writeI64(1);
                },
                [](TProtocol& r) { r.readListBegin(); }),
            K::kSizeLimit);
  EXPECT_EQ(read_error(
                [](TProtocol& w) {
                  w.writeSetBegin(TType::kString, kHuge);
                  w.writeString("x");
                },
                [](TProtocol& r) { r.readSetBegin(); }),
            K::kSizeLimit);
  EXPECT_EQ(read_error(
                [](TProtocol& w) {
                  w.writeMapBegin(TType::kI32, TType::kI32, kHuge);
                  w.writeI32(1);
                  w.writeI32(2);
                },
                [](TProtocol& r) { r.readMapBegin(); }),
            K::kSizeLimit);
}

/// Checks that `read` rejects, as kInvalidData, each message `write`
/// builds around a byte that is not a TType (size fields are 0, so only
/// the type check can reject it).
void expect_bad_types_rejected(std::function<void(TProtocol&, int8_t)> write,
                               std::function<void(TProtocol&)> read) {
  for (int8_t bad : {1, 7, 9, 16, 0x7f, -1}) {
    SCOPED_TRACE(int(bad));
    EXPECT_EQ(read_error([&](TProtocol& w) { write(w, bad); }, read),
              TProtocolException::Kind::kInvalidData);
  }
}

TEST(HostileInput, FieldTypeOutsideTTypeIsRejected) {
  expect_bad_types_rejected(
      [](TProtocol& w, int8_t bad) {
        w.writeByte(bad);
        w.writeI16(1);
      },
      [](TProtocol& r) { r.readFieldBegin(); });
}

TEST(HostileInput, ListAndSetElementTypeOutsideTTypeIsRejected) {
  auto write = [](TProtocol& w, int8_t bad) {
    w.writeByte(bad);
    w.writeI32(0);
  };
  expect_bad_types_rejected(write, [](TProtocol& r) { r.readListBegin(); });
  expect_bad_types_rejected(write, [](TProtocol& r) { r.readSetBegin(); });
}

TEST(HostileInput, MapKeyOrValueTypeOutsideTTypeIsRejected) {
  constexpr auto kI32 = static_cast<int8_t>(TType::kI32);
  auto read = [](TProtocol& r) { r.readMapBegin(); };
  expect_bad_types_rejected(
      [](TProtocol& w, int8_t bad) {
        w.writeByte(bad);
        w.writeByte(kI32);
        w.writeI32(0);
      },
      read);
  expect_bad_types_rejected(
      [](TProtocol& w, int8_t bad) {
        w.writeByte(kI32);
        w.writeByte(bad);
        w.writeI32(0);
      },
      read);
}

TEST(HostileInput, MessageTypeOutsideOneToFourIsRejected) {
  for (uint32_t type : {0u, 5u, 0xffu}) {
    SCOPED_TRACE(type);
    EXPECT_EQ(read_error(
                  [type](TProtocol& w) {
                    w.writeI32(static_cast<int32_t>(0x80010000u | type));
                    w.writeString("m");
                    w.writeI32(0);
                  },
                  [](TProtocol& r) { r.readMessageBegin(); }),
              TProtocolException::Kind::kInvalidData);
  }
}

TEST(HostileInput, DeeplyNestedStructsHitTheSkipDepthLimit) {
  // 100k nested struct field headers (type 0x0C, id 1): without a depth
  // bound, skip() recurses once per header and overflows the stack.
  std::vector<std::byte> wire;
  for (int i = 0; i < 100000; ++i)
    for (uint8_t b : {0x0C, 0x00, 0x01}) wire.push_back(std::byte{b});
  TMemoryBuffer buf = TMemoryBuffer::wrap(wire);
  TBinaryProtocol p(buf);
  try {
    p.skip(TType::kStruct);
    FAIL() << "nesting past the limit was accepted";
  } catch (const TProtocolException& e) {
    EXPECT_EQ(e.kind(), TProtocolException::Kind::kDepthLimit);
  }
}

TEST_P(ProtocolRoundTrip, NestingUpToTheSkipDepthLimitIsSkipped) {
  // kMaxSkipDepth structs in all: kWrappers around one leaf.
  constexpr int kWrappers = TProtocol::kMaxSkipDepth - 1;
  TMemoryBuffer buf;
  auto w = make_proto(GetParam(), buf);
  for (int i = 0; i < kWrappers; ++i) {
    w->writeStructBegin("N");
    w->writeFieldBegin(TType::kStruct, 1);
  }
  w->writeStructBegin("Leaf");
  w->writeFieldStop();
  w->writeStructEnd();
  for (int i = 0; i < kWrappers; ++i) {
    w->writeFieldEnd();
    w->writeFieldStop();
    w->writeStructEnd();
  }
  w->writeI32(77);
  auto r = make_proto(GetParam(), buf);
  r->skip(TType::kStruct);
  EXPECT_EQ(r->readI32(), 77);
}

TEST(HostileInput, SkippedStringsAdvanceWithoutReading) {
  TMemoryBuffer buf;
  TBinaryProtocol w(buf);
  w.writeString(std::string(1000, 's'));
  w.writeI32(42);
  TBinaryProtocol r(buf);
  r.skip(TType::kString);
  EXPECT_EQ(r.readI32(), 42);
}

// ---------------------------------------------------------------------------
// Fuzz-style property test: randomly generated nested documents must
// round-trip identically.
// ---------------------------------------------------------------------------

TEST_P(ProtocolRoundTrip, FuzzedNestedStructsRoundTrip) {
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
    TMemoryBuffer buf;
    auto p = make_proto(GetParam(), buf);
    hatrpc::sim::Rng wrng(seed), rrng(seed);

    // Recursive generator shared by writer and verifier: both walk the
    // same RNG stream, so the verifier knows exactly what to expect.
    std::function<void(hatrpc::sim::Rng&, bool, int)> walk =
        [&](hatrpc::sim::Rng& rng, bool writing, int depth) {
      int nfields = static_cast<int>(rng.uniform(1, 4));
      if (writing) p->writeStructBegin("F");
      else p->readStructBegin();
      int16_t id = 0;
      for (int f = 0; f < nfields; ++f) {
        id = static_cast<int16_t>(id + rng.uniform(1, 20));
        int t = depth < 2 ? static_cast<int>(rng.bounded(6))
                          : static_cast<int>(rng.bounded(5));
        TType tt;
        switch (t) {
          case 0: tt = TType::kBool; break;
          case 1: tt = TType::kI32; break;
          case 2: tt = TType::kI64; break;
          case 3: tt = TType::kDouble; break;
          case 4: tt = TType::kString; break;
          default: tt = TType::kStruct; break;
        }
        if (writing) p->writeFieldBegin(tt, id);
        else {
          auto fh = p->readFieldBegin();
          ASSERT_EQ(fh.type, tt);
          ASSERT_EQ(fh.id, id);
        }
        switch (t) {
          case 0: {
            bool v = rng.chance(0.5);
            if (writing) p->writeBool(v);
            else EXPECT_EQ(p->readBool(), v);
            break;
          }
          case 1: {
            auto v = static_cast<int32_t>(rng.next());
            if (writing) p->writeI32(v);
            else EXPECT_EQ(p->readI32(), v);
            break;
          }
          case 2: {
            auto v = static_cast<int64_t>(rng.next());
            if (writing) p->writeI64(v);
            else EXPECT_EQ(p->readI64(), v);
            break;
          }
          case 3: {
            double v = rng.uniform01() * 1e9 - 5e8;
            if (writing) p->writeDouble(v);
            else EXPECT_DOUBLE_EQ(p->readDouble(), v);
            break;
          }
          case 4: {
            size_t n = rng.bounded(40);
            std::string v;
            for (size_t i = 0; i < n; ++i)
              v += static_cast<char>(' ' + rng.bounded(94));
            if (writing) p->writeString(v);
            else EXPECT_EQ(p->readString(), v);
            break;
          }
          default:
            walk(rng, writing, depth + 1);
            break;
        }
        if (writing) p->writeFieldEnd();
        else p->readFieldEnd();
      }
      if (writing) p->writeFieldStop();
      else EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
      if (writing) p->writeStructEnd();
      else p->readStructEnd();
    };

    walk(wrng, true, 0);
    walk(rrng, false, 0);
  }
}

}  // namespace
}  // namespace hatrpc::thrift
