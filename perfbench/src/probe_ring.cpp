// probe_ring: probe-client / echo-server pairs spread around the
// loss-free 1000-AS ring (simnet::build_internet_scenario), probing with
// all four protocols on the event queue's default single lane. One round
// starts a fresh client per pair and runs the queue until it drains; no
// chain, crypto, marketplace or DVM is involved.
#include <memory>
#include <vector>

#include "common.hpp"
#include "oracles.hpp"
#include "simnet/hosts.hpp"
#include "simnet/scenarios.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace debuglet;

constexpr std::size_t kAses = 1000;
constexpr double kHopMs = 5.0;
constexpr std::size_t kPairs = 50;
// Hops between client and server. topology::Topology::shortest_path finds
// no path longer than 15 hops (find_paths' 16-AS depth cap), so wider
// pairs would fail every probe at send.
constexpr std::size_t kMaxSpan = 15;
constexpr std::uint64_t kProbesPerProtocol = 10;
constexpr SimDuration kInterval = duration::milliseconds(200);
// Peak RSS is read after set-up and a fixed amount of work (20 probe rounds),
// so it does not grow with the number of operations a run fits in.
constexpr std::uint64_t kRssCheckpointOps = 20;
// Set-up takes milliseconds here; more repeats steady its median.
constexpr int kExtraSetups = 10;

struct Pair {
  std::size_t hops = 0;
  net::Ipv4Address client;
  net::Ipv4Address server;
  std::unique_ptr<simnet::EchoServerHost> echo;
  std::unique_ptr<simnet::ProbeClientHost> prober;  // this round's client
};

struct Ring {
  simnet::Scenario scenario;
  std::vector<Pair> pairs;
};

std::unique_ptr<Ring> build_ring(std::uint64_t seed) {
  auto ring = std::make_unique<Ring>();
  ring->scenario =
      simnet::build_internet_scenario(kAses, derive_seed(seed, 1), kHopMs);
  simnet::SimulatedNetwork& network = *ring->scenario.network;
  Rng rng(derive_seed(seed, 6));
  // Clients evenly spaced around the ring from a seeded offset; each
  // server 1..kMaxSpan hops further on. The spans are the same multiset
  // for every seed (1, 2, ..., kMaxSpan, 1, 2, ...) in a seeded order, so
  // a round's work, and with it ops_per_s, does not vary with the seed
  // (spans drawn one by one made the summed hops a function of the seed).
  std::vector<std::size_t> spans(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) spans[i] = 1 + i % kMaxSpan;
  shuffle(spans, rng);
  const std::size_t offset = rng.index(kAses);
  const std::size_t stride = kAses / kPairs;
  ring->pairs.resize(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    Pair& pair = ring->pairs[i];
    pair.hops = spans[i];
    const std::size_t client_index = (offset + i * stride) % kAses;
    const std::size_t server_index = (client_index + pair.hops) % kAses;
    pair.server = network.allocate_host_address(
        static_cast<topology::AsNumber>(server_index + 1));
    pair.echo = std::make_unique<simnet::EchoServerHost>(network, pair.server);
    if (auto s = network.attach_host(pair.server, pair.echo.get()); !s)
      throw std::runtime_error(s.error_message());
    pair.client = network.allocate_host_address(
        static_cast<topology::AsNumber>(client_index + 1));
  }
  return ring;
}

}  // namespace

RunResult run_probe_ring(const Options& options, Tracer& tracer) {
  RunResult out;

  SetupTimer setups(kExtraSetups, options.seconds);
  std::unique_ptr<Ring> ring;
  {
    ScopedSpan span(tracer, "setup", 0);
    ring = build_ring(options.seed);
    setups.record(seconds_since(options.process_start));
  }
  simnet::SimulatedNetwork& network = *ring->scenario.network;
  simnet::EventQueue& queue = *ring->scenario.queue;

  std::vector<OpTiming> timings;
  std::vector<double> events_per_probe;
  std::vector<double> events_per_s;
  std::vector<double> last_rtts;
  std::size_t last_hops = 0;

  double rss_mb = 0.0;
  const WallTime phase_start = WallClock::now();
  // At least one timed operation follows the warm-up, however short the run.
  for (std::uint64_t op = 1; op <= kWarmupOps + 1 ||
                             seconds_since(phase_start) < options.seconds;
       ++op) {
    if (op == kRssCheckpointOps + 1) rss_mb = peak_rss_mb();
    // The warm-up and each operation after a spare set-up (which evicted
    // its caches) are checked but not timed.
    bool timed = op > kWarmupOps;
    const auto build = [&] { return build_ring(options.seed); };
    if (op > kRssCheckpointOps && setups.spare(tracer, op, phase_start, build))
      timed = false;
    simnet::ProbeClientConfig config;
    config.probe_count = kProbesPerProtocol;
    config.interval = kInterval;
    for (std::size_t i = 0; i < ring->pairs.size(); ++i) {
      Pair& pair = ring->pairs[i];
      if (pair.prober) network.detach_host(pair.client);
      config.server = pair.server;
      pair.prober = std::make_unique<simnet::ProbeClientHost>(
          network, pair.client, config,
          derive_seed(options.seed, (op << 16) | i));
      if (auto s = network.attach_host(pair.client, pair.prober.get()); !s)
        throw std::runtime_error(s.error_message());
    }

    ScopedSpan root(tracer, "round", op);
    const WallTime t0 = WallClock::now();
    std::size_t events = 0;
    {
      ScopedSpan span(tracer, "simnet.run", op, root.id());
      for (Pair& pair : ring->pairs) pair.prober->start();
      events = queue.run();
    }
    const double wall_s = seconds_since(t0);

    // Oracle: every probe of every protocol answered, no round trip
    // faster than the links allow over the pair's hops both ways.
    std::uint64_t round_answered = 0;
    for (Pair& pair : ring->pairs) {
      const simnet::ProbeReport& report = pair.prober->report();
      for (net::Protocol protocol : config.protocols) {
        auto sent = report.sent.find(protocol);
        auto rtt = report.rtt_ms.find(protocol);
        const std::uint64_t n = sent == report.sent.end() ? 0 : sent->second;
        const std::vector<double> samples =
            rtt == report.rtt_ms.end() ? std::vector<double>{}
                                       : rtt->second.samples();
        out.attempted += n;
        out.failed += n - std::min<std::uint64_t>(n, samples.size());
        round_answered += samples.size();
        out.expect("probes " + net::protocol_name(protocol) + " over " +
                       std::to_string(pair.hops) + " hops",
                   n == kProbesPerProtocol
                       ? check_rtt_floor(samples, n, pair.hops, kHopMs)
                       : std::to_string(n) + " probes sent");
        last_rtts = samples;
        last_hops = pair.hops;
      }
    }
    if (timed)
      timings.push_back({wall_s, static_cast<double>(round_answered)});
    events_per_probe.push_back(static_cast<double>(events) /
                               static_cast<double>(round_answered));
    events_per_s.push_back(static_cast<double>(events) / wall_s);
  }

  out.expect("self-test rtt",
             self_test_rtt_below_floor(last_rtts, kProbesPerProtocol,
                                       last_hops, kHopMs));

  out.end_to_end["setup_s"] = {setups.median_s(), "s"};
  out.end_to_end["peak_rss_mb"] = {rss_mb > 0 ? rss_mb : peak_rss_mb(), "MB"};
  report_operations(out, timings, "probes", "round");
  out.notes.push_back(
      "rounds " + std::to_string(timings.size()) + " of " +
      std::to_string(kPairs) + " pairs x 4 protocols x " +
      std::to_string(kProbesPerProtocol) + " probes (1000-AS ring, 1-" +
      std::to_string(kMaxSpan) + " hops)");

  if (tracer.enabled()) {
    out.per_layer["simnet.events_per_probe"] = {median(events_per_probe),
                                                "count"};
    out.per_layer["simnet.events_per_s"] = {median(events_per_s), "1/s"};
    out.per_layer["simnet.run_ms"] = {
        median(tracer.durations_ms("simnet.run")), "ms"};
  }
  return out;
}

}  // namespace perfbench
