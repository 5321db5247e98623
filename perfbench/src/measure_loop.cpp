// measure_loop: one initiator runs a closed loop of full §IV-A
// measurements on a 10-AS chain — purchase (LookupSlot + PurchaseSlot),
// run the event queue past the window, collect and verify both certified
// results — rotating the executor pair over segments of 1 to 9 hops the
// way localization buys them. The next measurement starts only after the
// previous one was collected.
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "apps/debuglets.hpp"
#include "common.hpp"
#include "core/initiator.hpp"
#include "inspect.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"
#include "vm/interpreter.hpp"

namespace perfbench {

namespace {

using namespace debuglet;

constexpr std::size_t kAses = 10;
constexpr double kHopMs = 5.0;
// CLI `measure` defaults: UDP, 10 probes at 200 ms.
constexpr net::Protocol kProtocol = net::Protocol::kUdp;
constexpr std::int64_t kProbes = 10;
constexpr std::int64_t kIntervalMs = 200;
// How far past the window the queue runs before collecting (the same
// grace measure_rtt_resilient allows).
constexpr SimDuration kGrace = duration::seconds(2);
constexpr chain::Mist kInitiatorFunding = 10'000'000'000'000ULL;  // 10k SUI
// Peak RSS is read after set-up and a fixed amount of work (one round of
// segments, 1 to 9 hops), so it does not grow with the number of
// operations a run fits in.
constexpr std::uint64_t kRssCheckpointOps = kAses - 1;
constexpr int kExtraSetups = 4;

struct World {
  std::unique_ptr<core::DebugletSystem> system;
  std::unique_ptr<core::Initiator> initiator;  // destroyed before system
};

std::unique_ptr<World> build_world(std::uint64_t seed) {
  auto world = std::make_unique<World>();
  world->system = std::make_unique<core::DebugletSystem>(
      simnet::build_chain_scenario(kAses, derive_seed(seed, 1), kHopMs),
      core::SystemConfig{}, derive_seed(seed, 2));
  world->initiator = std::make_unique<core::Initiator>(
      *world->system, derive_seed(seed, 3), kInitiatorFunding);
  return world;
}

/// Per-layer numbers the traced run collects beside the spans.
struct LayerSamples {
  std::vector<double> calendar_bytes;
  std::vector<double> gas_per_purchase;
  std::vector<double> txs_per_measurement;
  std::vector<double> events_per_probe;
  std::vector<double> events_per_s;
};

/// Times the DVM, crypto and executor layers on this measurement's own
/// inputs (traced run only).
void calibrate_layers(Tracer& tracer, std::uint64_t op, std::size_t root,
                      std::uint64_t seed, chain::Blockchain& chain,
                      const marketplace::PurchaseSlotArgs& purchase,
                      const core::MeasurementOutcome& outcome,
                      const crypto::PublicKey& client_pk,
                      const crypto::PublicKey& server_pk,
                      std::map<std::string, std::vector<double>>& us) {
  const vm::Module client_module = apps::make_probe_client_debuglet();
  const vm::Module server_module = apps::make_echo_server_debuglet();
  for (const vm::Module* module : {&client_module, &server_module}) {
    us["vm.translate_us"].push_back(
        time_us(tracer, "vm.translate", op, root, [&] {
          auto translated = vm::translate(*module);
          if (!translated) throw std::runtime_error("translate failed");
        }));
    std::vector<vm::HostFunction> stubs;
    for (const std::string& name : module->host_imports)
      stubs.push_back(vm::HostFunction{
          name, 0,
          [](vm::Instance&, std::span<const std::int64_t>)
              -> Result<std::int64_t> { return std::int64_t{0}; },
          false});
    us["vm.instantiate_us"].push_back(
        time_us(tracer, "vm.instantiate", op, root, [&] {
          auto instance = vm::Instance::create(*module, stubs);
          if (!instance) throw std::runtime_error("instantiate failed");
        }));
  }

  std::optional<crypto::KeyPair> key;
  us["crypto.keygen_us"].push_back(
      time_us(tracer, "crypto.keygen", op, root, [&] {
        key.emplace(crypto::KeyPair::from_seed(derive_seed(seed, op)));
      }));
  const chain::Transaction tx = chain.make_transaction_with_nonce(
      *key, 0, marketplace::kContractName, "PurchaseSlot",
      purchase.serialize(), purchase.client_slot.price * 2, 1'000'000'000,
      marketplace::access_purchase_slot(purchase.client_key,
                                        purchase.server_key));
  const Bytes message = tx.signing_bytes();
  const BytesView view(message.data(), message.size());
  crypto::Signature signature;
  us["crypto.sign_us"].push_back(time_us(
      tracer, "crypto.sign", op, root, [&] { signature = key->sign(view); }));
  us["crypto.verify_us"].push_back(
      time_us(tracer, "crypto.verify", op, root, [&] {
        if (!crypto::verify(key->public_key(), view, signature))
          throw std::runtime_error("signature did not verify");
      }));

  for (const auto& [result, pk] :
       {std::pair{&outcome.client, &client_pk},
        std::pair{&outcome.server, &server_pk}}) {
    us["executor.verify_result_us"].push_back(
        time_us(tracer, "executor.verify_result", op, root, [&] {
          if (!executor::verify_certified(*result, pk))
            throw std::runtime_error("certified result did not verify");
        }));
  }
}

}  // namespace

RunResult run_measure_loop(const Options& options, Tracer& tracer) {
  RunResult out;

  // The world the run uses, timed from process start; spare set-ups are
  // timed during the run (SetupTimer).
  SetupTimer setups(kExtraSetups, options.seconds);
  std::unique_ptr<World> world;
  {
    ScopedSpan span(tracer, "setup", 0);
    world = build_world(options.seed);
    setups.record(seconds_since(options.process_start));
  }
  core::DebugletSystem& system = *world->system;
  core::Initiator& initiator = *world->initiator;
  chain::Blockchain& chain = system.chain();
  const SimDuration slot_length = system.config().slot_length;
  const chain::GasSchedule& gas = chain.config().gas;

  // The first round of segments (the warm-up and every operation before
  // the RSS checkpoint) follows one schedule for every seed; later rounds
  // follow the seed. Peak RSS is a high-water mark of the heap and moved
  // by 4% with the order and placement of those nine segments alone.
  Rng first_round_rng(derive_seed(0, 4));
  Rng seeded_rng(derive_seed(options.seed, 4));
  Rng* rng = &first_round_rng;
  std::vector<std::size_t> round;  // hop counts left in this round
  std::vector<OpTiming> timings;
  std::map<std::string, std::vector<double>> layer_us;
  LayerSamples layer;
  chain::Mist prices_paid = 0;
  chain::Mist executor_gas = 0;
  ReferenceQuote last_reference;
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
    const auto build = [&] { return build_world(options.seed); };
    if (op > kRssCheckpointOps && setups.spare(tracer, op, phase_start, build))
      timed = false;
    // The pair rotates over segments of 1..9 hops, each hop count once per
    // round in a seeded order, each segment placed at a seeded position.
    if (round.empty()) {
      if (op > 1) rng = &seeded_rng;
      for (std::size_t h = 1; h < kAses; ++h) round.push_back(h);
      shuffle(round, *rng);
    }
    const std::size_t hops = round.back();
    round.pop_back();
    const std::size_t first = rng->index(kAses - hops);
    const topology::InterfaceKey client = simnet::chain_egress(first);
    const topology::InterfaceKey server = simnet::chain_ingress(first + hops);
    const std::string where = client.to_string() + "->" + server.to_string();

    // Oracle input, taken before the purchase: the reference quote from
    // the committed calendars. Initiator::purchase asks for windows that
    // start no earlier than now plus the chain's finality latency.
    QuoteRequest request;
    request.earliest_start =
        system.queue().now() + chain.config().finality_latency;
    const ReferenceQuote reference = reference_quote(
        system.marketplace().available_slots(client),
        system.marketplace().available_slots(server), request);

    ScopedSpan root(tracer, "measurement", op);
    std::map<std::string, std::uint64_t> versions;
    const std::uint64_t height = chain.height();
    if (tracer.enabled()) {
      marketplace::LookupSlotArgs lookup;
      lookup.client_key = client;
      lookup.server_key = server;
      lookup.earliest_start = request.earliest_start;
      Result<Bytes> quoted = fail("not run");
      {
        ScopedSpan span(tracer, "marketplace.quote", op, root.id());
        quoted = chain.view(marketplace::kContractName, "LookupSlot",
                            lookup.serialize());
      }
      auto quote = quoted ? marketplace::SlotQuote::parse(
                                BytesView(quoted->data(), quoted->size()))
                          : Result<marketplace::SlotQuote>(quoted.error());
      out.expect("quote " + where,
                 quote ? check_window(reference, quote->window_start,
                                      quote->window_end, quote->total_price)
                       : quote.error_message());
      versions = marketplace_versions(chain);
    }

    ++out.attempted;
    const chain::Mist spent_before = initiator.total_spent();
    const WallTime t0 = WallClock::now();
    Result<core::MeasurementHandle> handle = fail("not run");
    {
      ScopedSpan span(tracer, "core.purchase", op, root.id());
      handle = initiator.purchase_rtt_measurement(client, server, kProtocol,
                                                  kProbes, kIntervalMs);
    }
    if (!handle) {
      ++out.failed;
      out.expect("purchase " + where, handle.error_message());
      continue;
    }
    if (tracer.enabled())  // before ResultReady adds its own entries
      layer.calendar_bytes.push_back(
          static_cast<double>(rewritten_bytes(chain, versions)) / 2.0);
    const WallTime t1 = WallClock::now();
    std::size_t events = 0;
    {
      ScopedSpan span(tracer, "core.window_run", op, root.id());
      events = system.queue().run_until(handle->window_end + kGrace);
    }
    const WallTime t2 = WallClock::now();
    Result<core::MeasurementOutcome> outcome = fail("not run");
    {
      ScopedSpan span(tracer, "core.collect", op, root.id());
      outcome = initiator.collect(*handle);
    }
    const WallTime t3 = WallClock::now();
    if (!outcome) {
      ++out.failed;
      out.expect("collect " + where, outcome.error_message());
      continue;
    }
    if (timed) timings.push_back({seconds_between(t0, t3), 1.0});
    prices_paid += handle->price_paid;

    // Oracles: the purchase bought the reference quote's slots; every
    // probe was answered, none faster than the links allow over `hops`.
    out.expect("window " + where,
               check_purchase(reference, handle->window_start,
                              handle->window_end, handle->price_paid));
    const Bytes& output = outcome->client.record.output;
    auto samples =
        apps::decode_samples(BytesView(output.data(), output.size()));
    std::vector<double> rtts;
    if (samples)
      for (const apps::MeasurementSample& s : *samples)
        rtts.push_back(static_cast<double>(s.delay_ns) / 1e6);
    out.expect("rtt " + where,
               samples ? check_rtt_floor(rtts, kProbes, hops, kHopMs)
                       : samples.error_message());
    last_reference = reference;
    last_rtts = rtts;
    last_hops = hops;

    // Gas of the two ResultReady transactions, by the schedule: each
    // stores the published result as one new object.
    for (chain::ObjectId application :
         {handle->client_application, handle->server_application}) {
      marketplace::LookupResultArgs args;
      args.application = application;
      auto view = chain.view(marketplace::kContractName, "LookupResult",
                             args.serialize());
      auto entry = view ? marketplace::ResultEntry::parse(
                              BytesView(view->data(), view->size()))
                        : Result<marketplace::ResultEntry>(view.error());
      if (!entry || !entry->found) {
        out.expect("result entry " + where, "published result not found");
        continue;
      }
      executor_gas += scheduled_gas(gas, {entry->result.size()});
    }

    if (tracer.enabled()) {
      // total_spent grew by LookupSlot's gas (the flat fee: it stores
      // nothing), PurchaseSlot's gas and the slot price.
      layer.gas_per_purchase.push_back(static_cast<double>(
          initiator.total_spent() - spent_before - handle->price_paid -
          gas.computation_fee));
      layer.txs_per_measurement.push_back(
          static_cast<double>(transactions_since(chain, height)));
      layer.events_per_probe.push_back(static_cast<double>(events) /
                                       static_cast<double>(kProbes));
      layer.events_per_s.push_back(static_cast<double>(events) /
                                   seconds_between(t1, t2));
      // The purchase transaction as the initiator built it: the bought
      // slots and the payloads now stored in the application objects.
      marketplace::PurchaseSlotArgs purchase;
      purchase.client_key = client;
      purchase.server_key = server;
      purchase.client_slot = reference.client_slot;
      purchase.server_slot = reference.server_slot;
      for (const auto& [id, payload] :
           {std::pair{handle->client_application, &purchase.client_app},
            std::pair{handle->server_application, &purchase.server_app}}) {
        auto data = chain.read_object(id);
        if (!data) throw std::runtime_error(data.error_message());
        auto object = marketplace::ApplicationObject::parse(
            BytesView(data->data(), data->size()));
        if (!object) throw std::runtime_error(object.error_message());
        *payload = object->payload;
      }
      calibrate_layers(tracer, op, root.id(), options.seed, chain, purchase,
                       *outcome, *system.as_public_key(client.asn),
                       *system.as_public_key(server.asn), layer_us);
    }
  }

  // Token conservation over every account the world minted.
  const core::SystemConfig& config = system.config();
  chain::Mist minted = kInitiatorFunding;
  chain::Mist balances = initiator.balance();
  for (std::size_t i = 0; i < kAses; ++i) {
    const auto asn = static_cast<topology::AsNumber>(i + 1);
    minted += config.operator_funding;
    balances += chain.balance(
        chain::Address::of(*system.as_public_key(asn)));
  }
  const chain::Mist escrow =
      chain.escrow_balance(marketplace::kContractName) +
      chain.escrow_balance(marketplace::kReputationContractName);
  // Each executor registered itself and its calendar: two transactions
  // that store no object.
  const chain::Mist registration_gas =
      2 * system.executor_keys().size() * scheduled_gas(gas, {});
  const chain::Mist gas_charged = (initiator.total_spent() - prices_paid) +
                                  executor_gas + registration_gas;
  out.expect("token conservation",
             check_conservation(minted, balances, escrow, gas_charged));
  out.expect("chain integrity",
             chain.verify_integrity() ? "" : "verify_integrity() failed");

  // Oracle self-tests on doctored copies of this run's inputs.
  out.expect("self-test window",
             self_test_late_window(last_reference, slot_length));
  out.expect("self-test rtt",
             self_test_rtt_below_floor(last_rtts, kProbes, last_hops, kHopMs));
  out.expect("self-test conservation",
             self_test_balance_off_by_one(minted, balances, escrow,
                                          gas_charged));

  out.end_to_end["setup_s"] = {setups.median_s(), "s"};
  out.end_to_end["peak_rss_mb"] = {rss_mb > 0 ? rss_mb : peak_rss_mb(), "MB"};
  report_operations(out, timings, "measurements", "measure");
  out.notes.push_back("measurements " + std::to_string(timings.size()) +
                      " (10-AS chain, UDP, 10 probes at 200 ms, segments "
                      "of 1-9 hops)");

  if (tracer.enabled()) {
    auto ms = [&](const char* span) {
      return median(tracer.durations_ms(span));
    };
    out.per_layer["core.purchase_ms"] = {ms("core.purchase"), "ms"};
    out.per_layer["core.window_run_ms"] = {ms("core.window_run"), "ms"};
    out.per_layer["core.collect_ms"] = {ms("core.collect"), "ms"};
    out.per_layer["marketplace.quote_ms"] = {ms("marketplace.quote"), "ms"};
    out.per_layer["marketplace.calendar_bytes"] = {
        median(layer.calendar_bytes), "bytes"};
    out.per_layer["marketplace.gas_per_purchase_mist"] = {
        median(layer.gas_per_purchase), "MIST"};
    out.per_layer["chain.txs_per_measurement"] = {
        median(layer.txs_per_measurement), "count"};
    for (const char* name :
         {"crypto.keygen_us", "crypto.sign_us", "crypto.verify_us",
          "vm.translate_us", "vm.instantiate_us", "executor.verify_result_us"})
      out.per_layer[name] = {median(layer_us[name]), "us"};
    out.per_layer["simnet.events_per_probe"] = {
        median(layer.events_per_probe), "count"};
    out.per_layer["simnet.events_per_s"] = {median(layer.events_per_s), "1/s"};
    out.per_layer["simnet.run_ms"] = {ms("core.window_run"), "ms"};
  }
  return out;
}

}  // namespace perfbench
