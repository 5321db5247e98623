// Per-domain contracts of the event queue: the (time, id) order at equal
// timestamps across domains and within one context, the cross-domain
// lookahead clamp, and bit-exact repeat runs of real ring scenarios under
// host faults, wire faults and adversarial middleboxes. Domains are the
// per-AS units whose RNG streams and tallies decide every trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "simnet/hosts.hpp"
#include "simnet/middlebox.hpp"
#include "simnet/scenarios.hpp"

namespace debuglet::simnet {
namespace {

using net::Protocol;

// Equal-time events follow the (time, id) order: root-scheduled events
// fire in scheduling order whatever their domain, and the children of
// one event fire in the order that event scheduled them.
TEST(EventQueue, EqualTimeOrderAcrossDomainsAndWithinContext) {
  EventQueue q;
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    q.schedule_on(1, 50, [&, i] {
      EXPECT_EQ(q.current_domain(), 1u);
      order.push_back("d1." + std::to_string(i));
    });
    q.schedule_on(2, 50, [&, i] {
      EXPECT_EQ(q.current_domain(), 2u);
      order.push_back("d2." + std::to_string(i));
    });
  }
  q.schedule_on(3, 60, [&] {
    for (int i = 0; i < 4; ++i)
      q.schedule_at(60, [&, i] { order.push_back("c" + std::to_string(i)); });
  });
  EXPECT_EQ(q.current_domain(), EventQueue::kControlDomain);
  q.run();
  EXPECT_EQ(order, (std::vector<std::string>{"d1.0", "d2.0", "d1.1", "d2.1",
                                             "d1.2", "d2.2", "d1.3", "d2.3",
                                             "c0", "c1", "c2", "c3"}));
}

// Crossing into another domain costs at least the lookahead (half the
// smallest registered link floor); staying on the same domain does not.
TEST(EventQueue, CrossDomainScheduleClampsToLookahead) {
  EventQueue q;
  EXPECT_EQ(q.lookahead(), 1);  // no link floor registered yet
  q.note_link_floor(duration::milliseconds(10));
  q.note_link_floor(duration::milliseconds(30));  // only the smallest counts
  q.note_link_floor(0);                           // ignored
  ASSERT_EQ(q.lookahead(), duration::milliseconds(5));

  SimTime same = -1, cross = -1, from_control = -1, root_cross = -1;
  const SimTime t0 = duration::milliseconds(100);
  q.schedule_on(0, 0, [&] { from_control = q.now(); });
  q.schedule_on(1, t0, [&] {
    q.schedule_on(1, q.now(), [&] { same = q.now(); });
    q.schedule_on(2, q.now() + duration::milliseconds(1),
                  [&] { cross = q.now(); });
  });
  // Scheduling from outside dispatch starts on the control domain, so
  // this is a crossing too.
  q.schedule_on(4, 0, [&] { root_cross = q.now(); });
  q.run();
  EXPECT_EQ(from_control, 0);
  EXPECT_EQ(root_cross, duration::milliseconds(5));
  EXPECT_EQ(same, t0);
  EXPECT_EQ(cross, t0 + duration::milliseconds(5));
}

/// Appends every client's receive counts and exact RTT sample streams.
void append_client_trace(
    std::string& trace,
    const std::vector<std::unique_ptr<ProbeClientHost>>& clients) {
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ProbeReport& r = clients[i]->report();
    trace += "client " + std::to_string(i) + ":";
    for (const auto& [protocol, n] : r.received)
      trace += " recv=" + std::to_string(n);
    for (const auto& [protocol, set] : r.rtt_ms) {
      trace += " [";
      for (double sample : set.samples()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g,", sample);
        trace += buf;
      }
      trace += "]";
    }
    trace += "\n";
  }
}

/// One deterministic trace of a faulted ring scenario: a host fault
/// window on one server path and a corrupting, duplicating wire on one
/// ring link, under probe traffic from six clients.
std::string faulted_ring_trace() {
  Scenario s = build_internet_scenario(24, 11, 4.0);

  FaultSpec fault;
  fault.extra_delay_ms = 40.0;
  fault.start = duration::milliseconds(300);
  fault.end = duration::milliseconds(1500);
  EXPECT_TRUE(s.network->inject_fault(chain_egress(4), chain_ingress(5),
                                      fault));
  LinkFaultPlan wire;
  wire.corrupt(30.0);
  wire.duplicate(30.0, 2);
  EXPECT_TRUE(s.network->install_link_faults(chain_egress(9),
                                             chain_ingress(10), wire));

  std::vector<std::unique_ptr<EchoServerHost>> servers;
  std::vector<std::unique_ptr<ProbeClientHost>> clients;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto server_as =
        static_cast<topology::AsNumber>(1 + (i * 4 + 6) % 24);
    const auto client_as = static_cast<topology::AsNumber>(1 + (i * 4) % 24);
    const auto server_addr = s.network->allocate_host_address(server_as);
    servers.push_back(
        std::make_unique<EchoServerHost>(*s.network, server_addr));
    EXPECT_TRUE(s.network->attach_host(server_addr, servers.back().get()));
    ProbeClientConfig cfg;
    cfg.server = server_addr;
    cfg.probe_count = 20;
    cfg.interval = duration::milliseconds(100);
    cfg.protocols = {Protocol::kUdp, Protocol::kIcmp};
    const auto client_addr = s.network->allocate_host_address(client_as);
    clients.push_back(std::make_unique<ProbeClientHost>(
        *s.network, client_addr, cfg, 42 + i));
    EXPECT_TRUE(s.network->attach_host(client_addr, clients.back().get()));
  }
  for (auto& c : clients) c->start();
  s.queue->run();

  std::string trace;
  append_client_trace(trace, clients);
  trace += "drained at " + std::to_string(s.queue->now());
  return trace;
}

TEST(Determinism, FaultedRingTraceRepeats) {
  const std::string first = faulted_ring_trace();
  EXPECT_NE(first.find("recv="), std::string::npos);
  for (int rep = 0; rep < 2; ++rep) EXPECT_EQ(faulted_ring_trace(), first);
}

/// Sink for the data-class flows below: records arrival order, times and
/// a payload digest so middlebox mangling shows up in the trace.
class RecordingSinkHost : public Host {
 public:
  void on_packet(const Delivery& delivery) override {
    std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a
    for (std::uint8_t b : delivery.packet.payload) {
      digest ^= b;
      digest *= 1099511628211ULL;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, " %lld:%016llx",
                  static_cast<long long>(delivery.received_at),
                  static_cast<unsigned long long>(digest));
    log_ += buf;
  }
  const std::string& log() const { return log_; }

 private:
  std::string log_;
};

/// Adversarial-middlebox trace: a DPI chaos box on one AS, a fault-hiding
/// box on another, measurement-class probe rounds AND data-class flows
/// (high-entropy payloads) crossing both. The per-copy middlebox RNG
/// draws, extra queueing delays, mangle damage and ground-truth stats
/// all land in the trace.
std::string middlebox_ring_trace() {
  Scenario s = build_internet_scenario(24, 19, 4.0);

  ClassPolicy chaos;
  chaos.drop_pm = 80.0;
  chaos.extra_delay_ms = 6.0;
  chaos.delay_jitter_ms = 1.5;
  chaos.mangle_pm = 60.0;
  MiddleboxPlan dpi;
  dpi.policy_all(chaos);
  EXPECT_TRUE(s.network->install_middlebox(3, dpi).ok());

  ClassPolicy slow_lane;
  slow_lane.extra_delay_ms = 20.0;
  slow_lane.drop_pm = 100.0;
  MiddleboxPlan hider;
  hider.policy_all(slow_lane).recognize_probe_signatures(true);
  EXPECT_TRUE(s.network->install_middlebox(10, hider).ok());

  std::vector<std::unique_ptr<EchoServerHost>> servers;
  std::vector<std::unique_ptr<ProbeClientHost>> clients;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto server_as =
        static_cast<topology::AsNumber>(1 + (i * 6 + 11) % 24);
    const auto client_as = static_cast<topology::AsNumber>(1 + (i * 6) % 24);
    const auto server_addr = s.network->allocate_host_address(server_as);
    servers.push_back(
        std::make_unique<EchoServerHost>(*s.network, server_addr));
    EXPECT_TRUE(s.network->attach_host(server_addr, servers.back().get()));
    ProbeClientConfig cfg;
    cfg.server = server_addr;
    cfg.probe_count = 15;
    cfg.interval = duration::milliseconds(100);
    cfg.protocols = {Protocol::kUdp, Protocol::kIcmp};
    const auto client_addr = s.network->allocate_host_address(client_as);
    clients.push_back(std::make_unique<ProbeClientHost>(
        *s.network, client_addr, cfg, 71 + i));
    EXPECT_TRUE(s.network->attach_host(client_addr, clients.back().get()));
  }

  // Two data-class flows with high-entropy payloads (classified kOther,
  // so the chaos box rolls drop/delay/mangle dice for every packet and
  // the hider parks them in its slow lane).
  std::vector<std::unique_ptr<RecordingSinkHost>> sinks;
  Rng payload_rng(909);
  for (std::size_t f = 0; f < 2; ++f) {
    const auto src_as = static_cast<topology::AsNumber>(2 + f * 12);
    const auto dst_as = static_cast<topology::AsNumber>(14 + f * 8);
    const auto src = s.network->allocate_host_address(src_as);
    const auto dst = s.network->allocate_host_address(dst_as);
    sinks.push_back(std::make_unique<RecordingSinkHost>());
    EXPECT_TRUE(s.network->attach_host(dst, sinks.back().get()));
    for (int n = 0; n < 25; ++n) {
      net::ProbeSpec spec;
      spec.source = src;
      spec.destination = dst;
      spec.source_port = 51000;
      spec.destination_port = 27101;
      spec.sequence = static_cast<std::uint16_t>(n);
      spec.payload.resize(96);
      for (std::uint8_t& b : spec.payload)
        b = static_cast<std::uint8_t>(payload_rng.next_u64() & 0xFF);
      auto wire = net::build_probe(spec);
      EXPECT_TRUE(wire.ok());
      s.queue->schedule_on(s.network->domain_of(src),
                           duration::milliseconds(40 * (n + 1)),
                           [&s, src, wire = *wire] {
                             (void)s.network->send(src, wire);
                           });
    }
  }

  for (auto& c : clients) c->start();
  s.queue->run();

  std::string trace;
  append_client_trace(trace, clients);
  for (std::size_t f = 0; f < sinks.size(); ++f)
    trace += "flow " + std::to_string(f) + ":" + sinks[f]->log() + "\n";
  for (topology::AsNumber asn : {3u, 10u}) {
    const MiddleboxStats st = s.network->middlebox_stats(asn);
    trace += "mb AS" + std::to_string(asn) + ": " +
             std::to_string(st.inspected()) + "/" +
             std::to_string(st.dropped) + "/" +
             std::to_string(st.deprioritized) + "/" +
             std::to_string(st.mangled) + "/" +
             std::to_string(st.exempted) + "\n";
  }
  trace += "drained at " + std::to_string(s.queue->now());
  return trace;
}

TEST(Determinism, MiddleboxRingTraceRepeats) {
  const std::string first = middlebox_ring_trace();
  // The boxes saw traffic at all (otherwise this test proves nothing).
  EXPECT_NE(first.find("mb AS3"), std::string::npos);
  EXPECT_EQ(first.find("mb AS3: 0/"), std::string::npos);
  EXPECT_EQ(middlebox_ring_trace(), first);
}

}  // namespace
}  // namespace debuglet::simnet
