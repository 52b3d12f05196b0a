// Little-endian scalar packing for protocol control blocks and headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

namespace hatrpc::proto {

inline void put_u32(std::byte* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void put_u64(std::byte* p, uint64_t v) { std::memcpy(p, &v, 8); }

inline uint32_t get_u32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t get_u64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// memcpy for payload bytes: `src` may be an empty vector's null data()
/// when `n` is 0, which memcpy itself does not allow.
inline void copy_bytes(std::byte* dst, const std::byte* src, size_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}

/// Framing header the reliability layer prepends to every request so
/// retried attempts are idempotent: the server dedupes on `seq` and replays
/// its cached response instead of re-executing the handler.
struct RpcHeader {
  uint64_t seq = 0;
  uint32_t attempt = 0;
  uint32_t len = 0;  // payload bytes following the header
};

inline constexpr size_t kRpcHeaderBytes = 16;

inline void put_rpc_header(std::byte* p, const RpcHeader& h) {
  put_u64(p, h.seq);
  put_u32(p + 8, h.attempt);
  put_u32(p + 12, h.len);
}

inline RpcHeader get_rpc_header(const std::byte* p) {
  return RpcHeader{get_u64(p), get_u32(p + 8), get_u32(p + 12)};
}

/// A frame whose bytes contradict its header: too short to hold the header,
/// or announcing more payload than follows it.
class MalformedFrame : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A received reliability frame: its header and the payload it announces.
struct RpcFrame {
  RpcHeader header;
  std::span<const std::byte> payload;
};

/// Parses the RpcHeader at the start of `frame`, checked against the bytes
/// actually received (the header comes off the wire). Throws MalformedFrame.
inline RpcFrame parse_rpc_frame(std::span<const std::byte> frame) {
  if (frame.size() < kRpcHeaderBytes)
    throw MalformedFrame("rpc frame of " + std::to_string(frame.size()) +
                         " bytes is shorter than its header");
  const RpcHeader h = get_rpc_header(frame.data());
  if (h.len > frame.size() - kRpcHeaderBytes)
    throw MalformedFrame("rpc frame announces " + std::to_string(h.len) +
                         " payload bytes but carries " +
                         std::to_string(frame.size() - kRpcHeaderBytes));
  return RpcFrame{h, frame.subspan(kRpcHeaderBytes, h.len)};
}

}  // namespace hatrpc::proto
