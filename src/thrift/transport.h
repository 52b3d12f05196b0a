// Message-level transport over a socket. Thrift's client/server exchange
// whole serialized messages; TFramedTransport frames them over a byte stream
// (TSocket). The RDMA path carries whole messages natively (proto channels).
#pragma once

#include <optional>

#include "proto/wire.h"
#include "thrift/socket.h"

namespace hatrpc::thrift {

using Buffer = std::vector<std::byte>;
using View = std::span<const std::byte>;

/// [u32 length][payload] frames over a simulated TCP socket — Thrift's
/// TFramedTransport on TSocket. One request or response is one frame.
class TFramedTransport {
 public:
  explicit TFramedTransport(SimSocket* sock) : sock_(sock) {}

  sim::Task<void> send(View msg) {
    Buffer frame(4 + msg.size());
    proto::put_u32(frame.data(), static_cast<uint32_t>(msg.size()));
    std::memcpy(frame.data() + 4, msg.data(), msg.size());
    co_await sock_->write(frame);
  }

  /// nullopt on orderly EOF.
  sim::Task<std::optional<Buffer>> recv() {
    std::byte hdr[4];
    size_t got = co_await sock_->read(hdr, 1);
    if (got == 0) co_return std::nullopt;  // clean EOF between frames
    co_await sock_->read_exact(hdr + 1, 3);
    uint32_t len = proto::get_u32(hdr);
    Buffer msg(len);
    co_await sock_->read_exact(msg.data(), len);
    co_return msg;
  }

  void close() { sock_->close(); }

 private:
  SimSocket* sock_;
};

}  // namespace hatrpc::thrift
