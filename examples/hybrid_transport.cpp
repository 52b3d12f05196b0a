// Hybrid transports (paper §3.3 / §5.5): one service where the hot data
// path runs over RDMA while a legacy/administrative function is hinted
// onto TCP — both directed purely by hints, no application code changes.
// Also contrasts the same data function over the two transports.
//
//   $ ./examples/hybrid_transport
#include <cstdio>

#include "core/engine.h"

using namespace hatrpc;
using sim::Task;
using namespace std::chrono_literals;

namespace {

core::Buffer bytes_of(const std::string& s) {
  auto* p = reinterpret_cast<const std::byte*>(s.data());
  return core::Buffer(p, p + s.size());
}

hint::ServiceHints hints_with(bool query_on_tcp) {
  using namespace hatrpc::hint;
  ServiceHints h;
  h.service().add(Side::kShared, Key::kConcurrency,
                  parse_value(Key::kConcurrency, "4"));
  h.function("Query").add(Side::kShared, Key::kPayloadSize,
                          parse_value(Key::kPayloadSize, "2048"));
  h.function("Query").add(Side::kShared, Key::kPerfGoal,
                          parse_value(Key::kPerfGoal, "latency"));
  if (query_on_tcp)
    h.function("Query").add(Side::kShared, Key::kTransport,
                            parse_value(Key::kTransport, "tcp"));
  // Admin traffic is rare and latency-insensitive: keep it off the RDMA
  // resources entirely.
  h.function("AdminDump").add(Side::kShared, Key::kTransport,
                              parse_value(Key::kTransport, "tcp"));
  return h;
}

sim::Duration measure(bool query_on_tcp) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  thrift::SocketNet net(fabric);
  verbs::Node* client_node = fabric.add_node();
  verbs::Node* server_node = fabric.add_node();
  core::HatServer server(*server_node, hints_with(query_on_tcp), {}, &net);
  server.dispatcher().register_method(
      "Query",
      [&](core::View, thrift::TMemoryBuffer& out) -> Task<void> {
        co_await server_node->cpu().compute(500ns);
        const core::Buffer rows(2048, std::byte{0x7});
        out.write(rows.data(), rows.size());
      });
  server.dispatcher().register_method(
      "AdminDump", [](core::View, thrift::TMemoryBuffer& out) -> Task<void> {
        const core::Buffer dump(4096, std::byte{0x1});
        out.write(dump.data(), dump.size());
        co_return;
      });
  core::HatConnection conn(*client_node, server);
  sim::Duration mean{};
  sim.spawn([](sim::Simulator& sim, core::HatConnection& conn,
               core::HatServer& server, sim::Duration& mean) -> Task<void> {
    co_await conn.call_raw("AdminDump", {});  // legacy path works alongside
    sim::Time t0 = sim.now();
    constexpr int kN = 40;
    for (int i = 0; i < kN; ++i)
      co_await conn.call_raw("Query", bytes_of("select *"));
    mean = (sim.now() - t0) / kN;
    server.stop();
  }(sim, conn, server, mean));
  sim.run();
  return mean;
}

}  // namespace

int main() {
  sim::Duration rdma = measure(false);
  sim::Duration tcp = measure(true);
  std::printf("Query() mean latency:\n");
  std::printf("  transport=rdma (hint) : %8.2f us\n", sim::to_micros(rdma));
  std::printf("  transport=tcp  (hint) : %8.2f us\n", sim::to_micros(tcp));
  std::printf("RDMA speedup over IPoIB for the same function: %.1fx\n",
              sim::to_seconds(tcp) / sim::to_seconds(rdma));
  std::printf("(AdminDump stayed on TCP in both runs — hybrid transports "
              "per function, zero code changes)\n");
  return 0;
}
