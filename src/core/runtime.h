// Byte-level RPC runtime interfaces that generated code targets.
//
// A generated client stub takes an Envelope from HatCaller::begin_call
// (the call header, written into one of the channel's registered send
// blocks when the caller can lend one), appends its argument struct, and
// hands the envelope to HatCaller::call; it decodes the result struct in
// place from the returned Reply. A generated processor decodes the args,
// invokes the user's handler implementation, and appends the result struct
// to the reply envelope that HatDispatcher::process has already begun (on a
// Direct channel, in the registered memory the reply is posted from). The
// envelope is a standard Thrift message (name, type, seqid) so the same
// bytes flow over TSocket and an RDMA channel unchanged.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "proto/lease.h"
#include "sim/task.h"
#include "thrift/buffer.h"
#include "thrift/protocol.h"
#include "thrift/transport.h"

namespace hatrpc::core {

using thrift::Buffer;
using thrift::View;

/// A call envelope: the message header (seqid 0, stamped by call()), then
/// the args struct the stub appends through buffer(). Built over a lent send
/// block the bytes land in registered memory and the channel posts them
/// without a staging copy; a heap envelope, or one that outgrows its block,
/// takes the staged path with the same bytes. Must not outlive the caller
/// that began it.
class Envelope {
 public:
  Envelope() = default;
  explicit Envelope(std::string_view method, proto::SendBlock block = {})
      : block_(std::move(block)) {
    if (block_) buf_ = thrift::TMemoryBuffer::backed(block_.bytes());
    thrift::TBinaryProtocol(buf_).writeMessageBegin(
        method, thrift::TMessageType::kCall, 0);
  }

  thrift::TMemoryBuffer& buffer() { return buf_; }
  View view() const { return buf_.view(); }
  std::span<std::byte> bytes() { return buf_.mutable_view(); }
  size_t size() const { return buf_.view().size(); }
  /// True while the bytes sit in a lent send block (no staging copy).
  bool in_send_block() const { return block_ && buf_.backed_in_place(); }

 private:
  proto::SendBlock block_;  // buf_ may point into it
  thrift::TMemoryBuffer buf_;
};

/// A reply envelope as it arrived (owned, or lent from the channel's
/// response slot), with the offset of the result struct that follows the
/// message header.
struct Reply {
  proto::LeasedReply envelope;
  size_t body = 0;

  /// The serialized result struct.
  View view() const { return envelope.bytes().subspan(body); }
};

/// Server-side method table: method name -> handler over serialized args.
/// process() parses the Thrift message envelope, writes the reply header,
/// dispatches, and turns a throw into a TApplicationException reply.
class HatDispatcher {
 public:
  /// Takes the serialized args struct and appends the serialized result
  /// struct to `out`, which already holds the reply header.
  using MethodFn =
      std::function<sim::Task<void>(View args, thrift::TMemoryBuffer& out)>;

  void register_method(std::string name, MethodFn fn) {
    methods_[std::move(name)] = std::move(fn);
  }

  bool has_method(const std::string& name) const {
    return methods_.count(name) > 0;
  }

  /// Full envelope in -> reply envelope written to `out`, which must be
  /// empty and may be backed by the channel's registered response memory.
  sim::Task<void> process(View request, thrift::TMemoryBuffer& out) {
    thrift::TMemoryBuffer in = thrift::TMemoryBuffer::wrap(request);
    thrift::TBinaryProtocol ip(in);
    auto head = ip.readMessageBegin();

    thrift::TBinaryProtocol op(out);
    auto it = methods_.find(head.name);
    if (it == methods_.end()) {
      op.writeMessageBegin(head.name, thrift::TMessageType::kException,
                           head.seqid);
      write_application_exception(op, 1 /*UNKNOWN_METHOD*/,
                                  "unknown method: " + head.name);
      co_return;
    }
    size_t consumed = request.size() - in.readable();
    // Undeclared exceptions escaping a handler become INTERNAL_ERROR
    // replies (Apache Thrift behaviour) rather than tearing down the
    // server's serve loop; whatever part of a result the handler had
    // written is discarded, and the exception is written in its place.
    try {
      op.writeMessageBegin(head.name, thrift::TMessageType::kReply,
                           head.seqid);
      co_await it->second(request.subspan(consumed), out);
    } catch (const std::exception& e) {
      out.reset();
      op.writeMessageBegin(head.name, thrift::TMessageType::kException,
                           head.seqid);
      write_application_exception(op, 6 /*INTERNAL_ERROR*/, e.what());
    }
  }

  /// Full envelope in -> full envelope out, in a heap buffer.
  sim::Task<Buffer> process(View request) {
    thrift::TMemoryBuffer out;
    co_await process(request, out);
    co_return out.take();
  }

  /// Builds the call envelope around serialized args.
  static Buffer make_call(const std::string& method, View args,
                          int32_t seqid) {
    thrift::TMemoryBuffer buf;
    thrift::TBinaryProtocol p(buf);
    p.writeMessageBegin(method, thrift::TMessageType::kCall, seqid);
    buf.write(args.data(), args.size());
    return buf.take();
  }

  /// Overwrites the seqid of a Binary-protocol message envelope in place.
  static void stamp_seqid(std::span<std::byte> envelope, int32_t seqid) {
    thrift::TMemoryBuffer in = thrift::TMemoryBuffer::wrap(envelope);
    thrift::TBinaryProtocol ip(in);
    ip.readMessageBegin();  // validates the header
    const size_t end = envelope.size() - in.readable();
    thrift::TMemoryBuffer at = thrift::TMemoryBuffer::backed(
        envelope.subspan(end - sizeof(int32_t), sizeof(int32_t)));
    thrift::TBinaryProtocol(at).writeI32(seqid);
  }

  /// Strips the reply envelope; throws TApplicationException on error
  /// replies. Returns the serialized result struct, a view into `reply`.
  static View parse_reply(View reply, const std::string& method) {
    thrift::TMemoryBuffer buf = thrift::TMemoryBuffer::wrap(reply);
    thrift::TBinaryProtocol p(buf);
    auto head = p.readMessageBegin();
    if (head.type == thrift::TMessageType::kException) {
      throw read_application_exception(p);
    }
    if (head.name != method)
      throw thrift::TApplicationException(
          thrift::TApplicationException::Kind::kWrongMethodName,
          "reply for '" + head.name + "', expected '" + method + "'");
    return reply.subspan(reply.size() - buf.readable());
  }

  /// parse_reply() that keeps the envelope: the Reply holds `reply`.
  static Reply reply_of(proto::LeasedReply reply, const std::string& method) {
    const View bytes = reply.bytes();
    const size_t body = bytes.size() - parse_reply(bytes, method).size();
    return Reply{std::move(reply), body};
  }
  static Reply reply_of(Buffer reply, const std::string& method) {
    return reply_of(proto::LeasedReply(std::move(reply)), method);
  }

 private:
  static void write_application_exception(thrift::TProtocol& p, int32_t type,
                                          const std::string& what) {
    p.writeStructBegin("TApplicationException");
    p.writeFieldBegin(thrift::TType::kString, 1);
    p.writeString(what);
    p.writeFieldBegin(thrift::TType::kI32, 2);
    p.writeI32(type);
    p.writeFieldStop();
    p.writeStructEnd();
  }

  static thrift::TApplicationException read_application_exception(
      thrift::TProtocol& p) {
    std::string what = "unknown";
    int32_t type = 0;
    p.readStructBegin();
    while (true) {
      auto f = p.readFieldBegin();
      if (f.type == thrift::TType::kStop) break;
      if (f.id == 1 && f.type == thrift::TType::kString) what = p.readString();
      else if (f.id == 2 && f.type == thrift::TType::kI32) type = p.readI32();
      else p.skip(f.type);
    }
    p.readStructEnd();
    return thrift::TApplicationException(
        static_cast<thrift::TApplicationException::Kind>(type), what);
  }

  std::map<std::string, MethodFn> methods_;
};

/// Client-side generic call interface (implemented by HatConnection and by
/// the plain socket client).
class HatCaller {
 public:
  virtual ~HatCaller() = default;

  /// Starts the call envelope for `method`; the args struct follows the
  /// header. Callers that can lend registered memory override this.
  virtual Envelope begin_call(std::string_view method) {
    return Envelope(method);
  }

  /// Sends an envelope begun by begin_call() and returns the reply. `method`
  /// is taken by value: coroutine implementations move it into their
  /// frame, so callers may pass temporaries safely.
  virtual sim::Task<Reply> call(std::string method, Envelope envelope) = 0;

  /// Calls `method` with args that are already serialized (hand-written
  /// services without generated stubs); copies `args` into the envelope.
  sim::Task<Reply> call_raw(std::string method, View args) {
    Envelope env = begin_call(method);
    env.buffer().write(args.data(), args.size());
    return call(std::move(method), std::move(env));
  }
};

/// Service multiplexing (Thrift's TMultiplexedProtocol/TMultiplexedProcessor
/// pair, the fourth protocol of the paper's Fig. 2 row): several services
/// share one connection by prefixing method names with "<service>:".
constexpr char kMultiplexSeparator = ':';

/// Client side: scopes every call to one service on a shared caller.
class MultiplexedCaller : public HatCaller {
 public:
  MultiplexedCaller(HatCaller& inner, std::string service)
      : inner_(inner), prefix_(std::move(service) + kMultiplexSeparator) {}

  Envelope begin_call(std::string_view method) override {
    return inner_.begin_call(prefix_ + std::string(method));
  }

  sim::Task<Reply> call(std::string method, Envelope envelope) override {
    return inner_.call(prefix_ + method, std::move(envelope));
  }

 private:
  HatCaller& inner_;
  std::string prefix_;
};

/// Server side: a registration view that prefixes method names, so the
/// generated register_<Service>() helpers can bind multiple services into
/// one shared HatDispatcher. (Not a dispatcher itself — processing stays
/// with the shared inner dispatcher.)
class MultiplexedDispatcher {
 public:
  MultiplexedDispatcher(HatDispatcher& inner, std::string service)
      : inner_(inner), prefix_(std::move(service) + kMultiplexSeparator) {}

  void register_method(std::string name, HatDispatcher::MethodFn fn) {
    inner_.register_method(prefix_ + name, std::move(fn));
  }

 private:
  HatDispatcher& inner_;
  std::string prefix_;
};

}  // namespace hatrpc::core
