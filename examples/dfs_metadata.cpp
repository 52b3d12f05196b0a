// The motivating scenario of paper §3.3: a distributed file system whose
// RPC service is heterogeneous — metadata lookups need low latency, chunk
// reads/writes need high throughput, and heartbeats should cost nothing.
// One service, three very different functions, three different plans, all
// on one connection (optimization isolation).
//
//   $ ./examples/dfs_metadata
#include <cstdio>
#include <cstring>

#include "core/engine.h"

using namespace hatrpc;
using sim::Task;
using namespace std::chrono_literals;

namespace {

hint::ServiceHints dfs_hints() {
  using namespace hatrpc::hint;
  ServiceHints h;
  // Service defaults: a busy file server with many clients.
  h.service().add(Side::kShared, Key::kConcurrency,
                  parse_value(Key::kConcurrency, "64"));
  h.service().add(Side::kShared, Key::kPerfGoal,
                  parse_value(Key::kPerfGoal, "throughput"));
  // Stat(): small, latency-critical; clients may busy-poll, the loaded
  // server must not (lateral split).
  h.function("Stat").add(Side::kShared, Key::kPerfGoal,
                         parse_value(Key::kPerfGoal, "latency"));
  h.function("Stat").add(Side::kShared, Key::kPayloadSize,
                         parse_value(Key::kPayloadSize, "256"));
  h.function("Stat").add(Side::kServer, Key::kPolling,
                         parse_value(Key::kPolling, "event"));
  // ReadChunk(): large, throughput-oriented.
  h.function("ReadChunk").add(Side::kShared, Key::kPayloadSize,
                              parse_value(Key::kPayloadSize, "256k"));
  // Heartbeat(): periodic and unimportant — low priority.
  h.function("Heartbeat").add(Side::kShared, Key::kPriority,
                              parse_value(Key::kPriority, "low"));
  return h;
}

core::Buffer bytes_of(const std::string& s) {
  auto* p = reinterpret_cast<const std::byte*>(s.data());
  return core::Buffer(p, p + s.size());
}

void write_text(thrift::TMemoryBuffer& out, std::string_view s) {
  out.write(s.data(), s.size());
}

const char* poll_name(sim::PollMode m) {
  return m == sim::PollMode::kBusy ? "busy" : "event";
}

}  // namespace

int main() {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* client_node = fabric.add_node();
  verbs::Node* server_node = fabric.add_node();

  core::HatServer server(*server_node, dfs_hints(), {});
  server.dispatcher().register_method(
      "Stat", [&](core::View, thrift::TMemoryBuffer& out) -> Task<void> {
        co_await server_node->cpu().compute(400ns);  // inode lookup
        write_text(out, "size=4096 mode=0644 mtime=1636000000");
      });
  server.dispatcher().register_method(
      "ReadChunk", [&](core::View, thrift::TMemoryBuffer& out) -> Task<void> {
        co_await server_node->cpu().compute(5us);  // page-cache read
        const core::Buffer chunk(256 << 10, std::byte{0x42});
        out.write(chunk.data(), chunk.size());
      });
  server.dispatcher().register_method(
      "Heartbeat", [](core::View, thrift::TMemoryBuffer& out) -> Task<void> {
        write_text(out, "ok");
        co_return;
      });

  core::HatConnection conn(*client_node, server);
  std::printf("per-function plans derived from the hint hierarchy:\n");
  for (const char* fn : {"Stat", "ReadChunk", "Heartbeat"}) {
    const hint::Plan& plan = conn.plan_for(fn);
    std::printf("  %-10s -> %-18s client=%-5s server=%-5s\n", fn,
                std::string(proto::to_string(plan.protocol)).c_str(),
                poll_name(plan.client_poll), poll_name(plan.server_poll));
  }

  sim.spawn([](sim::Simulator& sim, core::HatConnection& conn,
               core::HatServer& server) -> Task<void> {
    // A metadata-heavy burst with periodic chunk reads and heartbeats —
    // the §3.3 workload existing one-size-fits-all RPCs serve poorly.
    sim::Duration stat_total{}, chunk_total{};
    int stats = 0, chunks = 0;
    for (int i = 0; i < 60; ++i) {
      sim::Time t0 = sim.now();
      if (i % 12 == 11) {
        co_await conn.call_raw("ReadChunk", bytes_of("chunk-7"));
        chunk_total += sim.now() - t0;
        ++chunks;
      } else if (i % 20 == 19) {
        co_await conn.call_raw("Heartbeat", {});
      } else {
        co_await conn.call_raw("Stat", bytes_of("/data/file.txt"));
        stat_total += sim.now() - t0;
        ++stats;
      }
    }
    std::printf("\nStat      x%-3d mean %.2f us (latency plan)\n", stats,
                sim::to_micros(stat_total / stats));
    std::printf("ReadChunk x%-3d mean %.2f us (256 KB, throughput plan)\n",
                chunks, sim::to_micros(chunk_total / chunks));
    std::printf("distinct channels on this connection: %zu\n",
                conn.channel_count());
    server.stop();
  }(sim, conn, server));
  sim.run();
  return 0;
}
