// purchase_batch: blocks of PurchaseSlot transactions, each buying a
// distinct slot pair, committed through Blockchain::submit_batch on 4
// workers. The purchases spread over 4 executor pairs (8 executors, each
// with the default 48-h calendar of 20-s slots) with one buyer per pair, so
// a block splits into 4 conflict groups. Keys, registrations and the first
// blocks' signatures are made during set-up; no simnet, DVM or executor
// runs.
#include <deque>
#include <memory>
#include <stdexcept>

#include "apps/debuglets.hpp"
#include "common.hpp"
#include "core/system.hpp"
#include "inspect.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace debuglet;
using marketplace::TimeSlot;

constexpr std::size_t kPairs = 4;
constexpr std::size_t kPurchasesPerPairPerBlock = 4;
constexpr unsigned kWorkers = 4;  // the CLI default
constexpr std::size_t kPresignedBlocks = 8;
constexpr chain::Mist kBuyerFunding = 10'000'000'000'000ULL;  // 10k SUI
constexpr chain::Mist kGasBudget = 1'000'000'000;
// Peak RSS is read after set-up and a fixed amount of work (the pre-signed
// blocks), so it does not grow with the number of operations a run fits in.
constexpr std::uint64_t kRssCheckpointOps = kPresignedBlocks;
constexpr int kExtraSetups = 4;

struct Block {
  std::vector<chain::Transaction> txs;
  std::map<topology::InterfaceKey, std::vector<TimeSlot>> bought;
};

struct Market {
  chain::Blockchain chain;
  marketplace::MarketplaceContract* marketplace = nullptr;  // owned by chain
  std::vector<crypto::KeyPair> operators;   // one per executor
  std::vector<topology::InterfaceKey> executors;  // client, server, ...
  std::vector<crypto::KeyPair> buyers;      // one per pair
  std::vector<std::uint64_t> buyer_nonce;
  std::vector<std::vector<TimeSlot>> calendar;  // as registered, per executor
  std::vector<std::vector<std::size_t>> slot_order;  // per pair, seeded
  std::vector<std::size_t> next_purchase;             // per pair
  marketplace::ApplicationPayload client_app;
  marketplace::ApplicationPayload server_app;
  chain::Mist minted = 0;
  chain::Mist gas_charged = 0;
  std::deque<Block> presigned;
};

/// The calendar an executor agent registers (core::ExecutorAgent): the
/// default horizon cut into default-length slots.
std::vector<TimeSlot> default_calendar() {
  const core::SystemConfig config;
  std::vector<TimeSlot> slots;
  for (SimTime t = 0; t < config.slot_horizon; t += config.slot_length) {
    TimeSlot slot;
    slot.cores = 2;
    slot.memory_bytes = 1 << 20;
    slot.bandwidth_bps = 100'000'000;
    slot.start = t;
    slot.end = t + config.slot_length;
    slot.price = config.slot_price;
    slots.push_back(slot);
  }
  return slots;
}

/// The probe-client / echo-server payloads Initiator::purchase_rtt_measurement
/// attaches for the CLI `measure` defaults.
void make_payloads(Market& m) {
  const topology::Topology addressing;
  const net::Ipv4Address client_addr = addressing.address_of(m.executors[0]);
  const net::Ipv4Address server_addr = addressing.address_of(m.executors[1]);
  const std::int64_t probes = 10;
  const std::int64_t interval_ms = 200;
  const std::int64_t recv_timeout_ms = interval_ms + 1000;
  const SimDuration budget =
      duration::milliseconds(interval_ms + recv_timeout_ms) * (probes + 2) +
      duration::seconds(5);
  apps::ProbeClientParams client;
  client.server = server_addr;
  client.server_port = 40000;
  client.probe_count = probes;
  client.interval_ms = interval_ms;
  client.recv_timeout_ms = recv_timeout_ms;
  apps::EchoServerParams server;
  server.idle_timeout_ms = interval_ms * 3 + 2000;
  m.client_app.bytecode = apps::make_probe_client_debuglet().serialize();
  m.client_app.manifest =
      apps::client_manifest(client.protocol, server_addr, probes, budget)
          .serialize();
  m.client_app.parameters = client.to_parameters();
  m.server_app.bytecode = apps::make_echo_server_debuglet().serialize();
  m.server_app.manifest =
      apps::server_manifest(server.protocol, client_addr, probes, budget)
          .serialize();
  m.server_app.parameters = server.to_parameters();
  m.server_app.listen_port = 40000;
}

void submit_or_throw(Market& m, const chain::Transaction& tx) {
  auto receipt = m.chain.submit(tx);
  if (!receipt) throw std::runtime_error(receipt.error_message());
  if (!receipt->success)
    throw std::runtime_error(tx.function + ": " + receipt->error);
  m.gas_charged += receipt->gas_charged;
}

/// Signs the next block: every pair buys its next kPurchasesPerPairPerBlock
/// slots from its seeded order, pairs interleaved.
Block sign_block(Market& m) {
  Block block;
  for (std::size_t k = 0; k < kPurchasesPerPairPerBlock; ++k) {
    for (std::size_t p = 0; p < kPairs; ++p) {
      const std::size_t slot = m.slot_order[p].at(m.next_purchase[p]++);
      marketplace::PurchaseSlotArgs args;
      args.client_key = m.executors[2 * p];
      args.server_key = m.executors[2 * p + 1];
      args.client_slot = m.calendar[2 * p][slot];
      args.server_slot = m.calendar[2 * p + 1][slot];
      args.client_app = m.client_app;
      args.server_app = m.server_app;
      block.bought[args.client_key].push_back(args.client_slot);
      block.bought[args.server_key].push_back(args.server_slot);
      block.txs.push_back(m.chain.make_transaction_with_nonce(
          m.buyers[p], m.buyer_nonce[p]++, marketplace::kContractName,
          "PurchaseSlot", args.serialize(),
          args.client_slot.price + args.server_slot.price, kGasBudget,
          marketplace::access_purchase_slot(args.client_key,
                                            args.server_key)));
    }
  }
  return block;
}

std::unique_ptr<Market> build_market(std::uint64_t seed, Tracer& tracer) {
  auto m = std::make_unique<Market>();
  auto contract = std::make_unique<marketplace::MarketplaceContract>();
  m->marketplace = contract.get();
  if (auto s = m->chain.register_contract(std::move(contract)); !s)
    throw std::runtime_error(s.error_message());
  if (auto s = m->chain.register_contract(
          std::make_unique<marketplace::ReputationContract>());
      !s)
    throw std::runtime_error(s.error_message());

  const core::SystemConfig config;
  const std::vector<TimeSlot> calendar = default_calendar();
  for (std::size_t p = 0; p < kPairs; ++p) {
    // Pair p measures AS(2p+1) -> AS(2p+2), client and server facing
    // each other as in a chain.
    m->executors.push_back(simnet::chain_egress(2 * p));
    m->executors.push_back(simnet::chain_ingress(2 * p + 1));
  }
  for (std::size_t e = 0; e < m->executors.size(); ++e) {
    {
      ScopedSpan span(tracer, "crypto.keygen", 0);
      m->operators.push_back(
          crypto::KeyPair::from_seed(derive_seed(seed, 100 + e)));
    }
    const chain::Address owner =
        chain::Address::of(m->operators.back().public_key());
    m->chain.mint(owner, config.operator_funding);
    m->minted += config.operator_funding;
    const topology::InterfaceKey key = m->executors[e];
    submit_or_throw(*m, m->chain.make_transaction(
                            m->operators.back(), marketplace::kContractName,
                            "RegisterExecutor",
                            marketplace::RegisterExecutorArgs{key}.serialize(),
                            0, kGasBudget,
                            marketplace::access_register_executor(key)));
    marketplace::RegisterTimeSlotArgs slots;
    slots.key = key;
    slots.slots = calendar;
    submit_or_throw(*m, m->chain.make_transaction(
                            m->operators.back(), marketplace::kContractName,
                            "RegisterTimeSlot", slots.serialize(), 0,
                            kGasBudget,
                            marketplace::access_register_time_slot(key)));
    m->calendar.push_back(calendar);
  }

  Rng rng(derive_seed(seed, 5));
  for (std::size_t p = 0; p < kPairs; ++p) {
    {
      ScopedSpan span(tracer, "crypto.keygen", 0);
      m->buyers.push_back(
          crypto::KeyPair::from_seed(derive_seed(seed, 200 + p)));
    }
    m->chain.mint(chain::Address::of(m->buyers.back().public_key()),
                  kBuyerFunding);
    m->minted += kBuyerFunding;
    m->buyer_nonce.push_back(0);
    m->next_purchase.push_back(0);
    // Each pair buys its slots in a seeded order; every slot once.
    std::vector<std::size_t> order(calendar.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    m->slot_order.push_back(std::move(order));
  }
  make_payloads(*m);
  for (std::size_t b = 0; b < kPresignedBlocks; ++b)
    m->presigned.push_back(sign_block(*m));
  return m;
}

}  // namespace

RunResult run_purchase_batch(const Options& options, Tracer& tracer) {
  RunResult out;

  SetupTimer setups(kExtraSetups, options.seconds);
  std::unique_ptr<Market> market;
  {
    ScopedSpan span(tracer, "setup", 0);
    market = build_market(options.seed, tracer);
    setups.record(seconds_since(options.process_start));
  }
  Market& m = *market;
  const chain::BatchOptions batch{kWorkers};

  std::vector<OpTiming> timings;
  std::vector<double> calendar_bytes;
  std::vector<double> gas_per_purchase;
  std::map<std::string, std::vector<double>> layer_us;
  Block last_block;
  std::map<topology::InterfaceKey, std::vector<TimeSlot>> last_before;
  std::map<topology::InterfaceKey, std::vector<TimeSlot>> checked;

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
    const auto build = [&] { return build_market(options.seed, tracer); };
    if (op > kRssCheckpointOps && setups.spare(tracer, op, phase_start, build))
      timed = false;
    // Blocks past the pre-signed ones are signed here, outside the timing.
    if (m.presigned.empty()) m.presigned.push_back(sign_block(m));
    Block block = std::move(m.presigned.front());
    m.presigned.pop_front();

    // Oracle input: each calendar before the block. The first block reads
    // it from the chain; later ones start from the calendar the previous
    // block was checked to leave.
    std::map<topology::InterfaceKey, std::vector<TimeSlot>> before;
    for (const auto& [key, slots] : block.bought) {
      auto it = checked.find(key);
      before[key] = it != checked.end() ? std::move(it->second)
                                        : m.marketplace->available_slots(key);
    }

    ScopedSpan root(tracer, "block", op);
    std::map<std::string, std::uint64_t> versions;
    if (tracer.enabled()) {
      versions = marketplace_versions(m.chain);
      // The block's signatures verified serially, outside the chain.
      ScopedSpan span(tracer, "crypto.block_verify", op, root.id());
      for (const chain::Transaction& tx : block.txs) {
        const Bytes message = tx.signing_bytes();
        if (!crypto::verify(tx.sender,
                            BytesView(message.data(), message.size()),
                            tx.signature))
          out.expect("block signatures", "a signed purchase did not verify");
      }
    }

    const WallTime t0 = WallClock::now();
    std::vector<Result<chain::Receipt>> receipts;
    {
      ScopedSpan span(tracer, "chain.submit_batch", op, root.id());
      receipts = m.chain.submit_batch(block.txs, batch);
    }
    const double wall_s = seconds_since(t0);
    std::size_t committed = 0;

    for (std::size_t i = 0; i < receipts.size(); ++i) {
      ++out.attempted;
      const Result<chain::Receipt>& r = receipts[i];
      if (!r || !r->success) {
        ++out.failed;
        out.expect("purchase in block " + std::to_string(op),
                   r ? r->error : r.error_message());
        if (r) m.gas_charged += r->gas_charged;
        continue;
      }
      ++committed;
      m.gas_charged += r->gas_charged;
      gas_per_purchase.push_back(static_cast<double>(r->gas_charged));
      // The receipt's window is the overlap of the two bought slots.
      auto receipt = marketplace::PurchaseReceipt::parse(
          BytesView(r->return_value.data(), r->return_value.size()));
      const std::size_t p = i % kPairs;
      const TimeSlot& cs = block.bought[m.executors[2 * p]][i / kPairs];
      const TimeSlot& ss = block.bought[m.executors[2 * p + 1]][i / kPairs];
      if (!receipt || receipt->window_start != std::max(cs.start, ss.start) ||
          receipt->window_end != std::min(cs.end, ss.end))
        out.expect("purchase receipt in block " + std::to_string(op),
                   "window differs from the bought slots");
    }

    if (timed) timings.push_back({wall_s, static_cast<double>(committed)});

    for (const auto& [key, bought] : block.bought) {
      std::vector<TimeSlot> after = m.marketplace->available_slots(key);
      out.expect("calendar " + key.to_string() + " after block " +
                     std::to_string(op),
                 check_calendar(before[key], bought, after));
      checked[key] = std::move(after);
    }
    if (tracer.enabled()) {
      // Named-state bytes the block rewrote, per executor it bought from.
      calendar_bytes.push_back(
          static_cast<double>(rewritten_bytes(m.chain, versions)) /
          static_cast<double>(block.bought.size()));
      const chain::Transaction& tx = block.txs.front();
      const Bytes message = tx.signing_bytes();
      const BytesView view(message.data(), message.size());
      crypto::Signature signature;
      layer_us["crypto.sign_us"].push_back(time_us(
          tracer, "crypto.sign", op, root.id(),
          [&] { signature = m.buyers[0].sign(view); }));
      layer_us["crypto.verify_us"].push_back(time_us(
          tracer, "crypto.verify", op, root.id(), [&] {
            if (!crypto::verify(tx.sender, view, signature))
              out.expect("re-signed purchase", "did not verify");
          }));
    }
    last_before = std::move(before);
    last_block = std::move(block);
  }

  // Token conservation over every minted account; every receipt's gas was
  // counted as it came back.
  chain::Mist balances = 0;
  for (const crypto::KeyPair& key : m.operators)
    balances += m.chain.balance(chain::Address::of(key.public_key()));
  for (const crypto::KeyPair& key : m.buyers)
    balances += m.chain.balance(chain::Address::of(key.public_key()));
  const chain::Mist escrow =
      m.chain.escrow_balance(marketplace::kContractName) +
      m.chain.escrow_balance(marketplace::kReputationContractName);
  out.expect("token conservation",
             check_conservation(m.minted, balances, escrow, m.gas_charged));
  out.expect("chain integrity",
             m.chain.verify_integrity() ? "" : "verify_integrity() failed");

  // Oracle self-tests on doctored copies of this run's inputs.
  const auto& [key, bought] = *last_block.bought.begin();
  out.expect("self-test calendar",
             self_test_extra_slot_removed(last_before[key], bought,
                                          checked[key]));
  out.expect("self-test conservation",
             self_test_balance_off_by_one(m.minted, balances, escrow,
                                          m.gas_charged));

  out.end_to_end["setup_s"] = {setups.median_s(), "s"};
  out.end_to_end["peak_rss_mb"] = {rss_mb > 0 ? rss_mb : peak_rss_mb(), "MB"};
  report_operations(out, timings, "purchases", "block");
  out.notes.push_back(
      "blocks " + std::to_string(timings.size()) + " of " +
      std::to_string(kPairs * kPurchasesPerPairPerBlock) + " purchases (" +
      std::to_string(kPairs) + " executor pairs, " + std::to_string(kWorkers) +
      " workers)");

  if (tracer.enabled()) {
    auto ms = [&](const char* span) {
      return median(tracer.durations_ms(span));
    };
    out.per_layer["marketplace.calendar_bytes"] = {median(calendar_bytes),
                                                   "bytes"};
    out.per_layer["marketplace.gas_per_purchase_mist"] = {
        median(gas_per_purchase), "MIST"};
    out.per_layer["chain.submit_batch_ms"] = {ms("chain.submit_batch"), "ms"};
    out.per_layer["crypto.keygen_us"] = {ms("crypto.keygen") * 1e3, "us"};
    out.per_layer["crypto.sign_us"] = {median(layer_us["crypto.sign_us"]),
                                       "us"};
    out.per_layer["crypto.verify_us"] = {median(layer_us["crypto.verify_us"]),
                                         "us"};
    out.per_layer["crypto.block_verify_ms"] = {ms("crypto.block_verify"),
                                               "ms"};
  }
  return out;
}

}  // namespace perfbench
