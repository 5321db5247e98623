// Correctness oracles: computations made apart from the program, or
// properties its outputs must have, never a stored copy of an earlier
// run's output. Each check returns an empty string when the output passes
// and the reason when it does not.
//
// self_test_* feed each oracle a doctored copy of a real input from the
// run and expect a rejection, so a check that always passes cannot hide a
// regression.
#pragma once

#include <string>
#include <vector>

#include "chain/gas.hpp"
#include "marketplace/types.hpp"

namespace perfbench {

/// The earliest common execution window of two calendars, as
/// LookupSlot's contract defines it: the earliest start over all pairs of
/// slots that overlap after `earliest_start` and accommodate the request,
/// ties going to the earlier client slot, then the earlier server slot.
/// Computed by a merge sweep over the two start-sorted calendars.
struct ReferenceQuote {
  bool found = false;
  debuglet::SimTime window_start = 0;
  debuglet::SimTime window_end = 0;
  debuglet::marketplace::TimeSlot client_slot;
  debuglet::marketplace::TimeSlot server_slot;
  debuglet::chain::Mist price = 0;
};

struct QuoteRequest {
  std::uint32_t cores = 1;
  std::uint64_t memory_bytes = 64 * 1024;
  std::uint64_t bandwidth_bps = 1'000'000;
  debuglet::SimTime earliest_start = 0;
};

ReferenceQuote reference_quote(
    const std::vector<debuglet::marketplace::TimeSlot>& client,
    const std::vector<debuglet::marketplace::TimeSlot>& server,
    const QuoteRequest& request);

/// A LookupSlot quote's window and price must equal the reference.
std::string check_window(const ReferenceQuote& expected,
                         debuglet::SimTime window_start,
                         debuglet::SimTime window_end,
                         debuglet::chain::Mist price);

/// A purchase must buy the reference's slot pair: its window is the
/// overlap of the two slots (PurchaseSlot does not clip it to the quote's
/// earliest start) and its price their sum.
std::string check_purchase(const ReferenceQuote& expected,
                           debuglet::SimTime window_start,
                           debuglet::SimTime window_end,
                           debuglet::chain::Mist price);

/// The RTT oracle over a pair `hops` links apart with `hop_ms` of
/// propagation per link: every probe answered; no round trip below the
/// link model's hard floor (no direction of a link is faster than half its
/// propagation, so hops * hop_ms); and the mean no lower than the
/// propagation both ways, 2 * hops * hop_ms, less kJitterAllowanceMs for
/// the links' symmetric jitter (0.05 ms per link on the scenarios used
/// here; transit delay only adds).
inline constexpr double kJitterAllowanceMs = 0.5;

std::string check_rtt_floor(const std::vector<double>& rtt_ms,
                            std::size_t probes_sent, std::size_t hops,
                            double hop_ms);

/// The calendar after a block equals the calendar before it minus
/// exactly the slots bought from it, in the same order.
std::string check_calendar(
    const std::vector<debuglet::marketplace::TimeSlot>& before,
    const std::vector<debuglet::marketplace::TimeSlot>& bought,
    const std::vector<debuglet::marketplace::TimeSlot>& after);

/// Tokens are conserved: minted = balances + escrow + gas charged.
std::string check_conservation(debuglet::chain::Mist minted,
                               debuglet::chain::Mist balances,
                               debuglet::chain::Mist escrow,
                               debuglet::chain::Mist gas);

/// Gas of a transaction by Table II's schedule: the flat computation fee
/// plus storage for each object it creates.
debuglet::chain::Mist scheduled_gas(
    const debuglet::chain::GasSchedule& gas,
    const std::vector<std::size_t>& created_object_bytes);

// --- Self-tests on doctored inputs ------------------------------------
// Each returns an empty string when the oracle rejected the doctored
// input (the expected outcome) and the reason otherwise.

/// A purchase one slot later than the reference must be rejected.
std::string self_test_late_window(const ReferenceQuote& expected,
                                  debuglet::SimDuration slot_length);

/// Sample sets with one round trip below the hard floor, with every
/// round trip one hop short, or with a probe missing must be rejected.
std::string self_test_rtt_below_floor(const std::vector<double>& rtt_ms,
                                      std::size_t probes_sent,
                                      std::size_t hops, double hop_ms);

/// A calendar with one extra slot removed must be rejected.
std::string self_test_extra_slot_removed(
    const std::vector<debuglet::marketplace::TimeSlot>& before,
    const std::vector<debuglet::marketplace::TimeSlot>& bought,
    const std::vector<debuglet::marketplace::TimeSlot>& after);

/// Balances off by one MIST must be rejected.
std::string self_test_balance_off_by_one(debuglet::chain::Mist minted,
                                         debuglet::chain::Mist balances,
                                         debuglet::chain::Mist escrow,
                                         debuglet::chain::Mist gas);

}  // namespace perfbench
