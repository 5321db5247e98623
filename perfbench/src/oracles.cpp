#include "oracles.hpp"

#include <algorithm>
#include <tuple>

namespace perfbench {

using debuglet::SimTime;
using debuglet::chain::Mist;
using debuglet::marketplace::TimeSlot;

namespace {

std::string describe(const TimeSlot& slot) {
  return "[" + std::to_string(slot.start) + ", " + std::to_string(slot.end) +
         ")";
}

}  // namespace

ReferenceQuote reference_quote(const std::vector<TimeSlot>& client,
                               const std::vector<TimeSlot>& server,
                               const QuoteRequest& request) {
  auto usable = [&request](const TimeSlot& slot) {
    return slot.accommodates(request.cores, request.memory_bytes,
                             request.bandwidth_bps) &&
           slot.end > request.earliest_start;
  };
  // Registered calendars are start-sorted and non-overlapping, so a merge
  // sweep visits every overlapping pair: always advance the side whose
  // slot ends first.
  ReferenceQuote best;
  std::tuple<SimTime, std::size_t, std::size_t> best_rank{};
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < client.size() && j < server.size()) {
    const TimeSlot& cs = client[i];
    const TimeSlot& ss = server[j];
    const SimTime start =
        std::max({cs.start, ss.start, request.earliest_start});
    const SimTime end = std::min(cs.end, ss.end);
    if (usable(cs) && usable(ss) && start < end) {
      const std::tuple<SimTime, std::size_t, std::size_t> rank{start, i, j};
      if (!best.found || rank < best_rank) {
        best.found = true;
        best_rank = rank;
        best.window_start = start;
        best.window_end = end;
        best.client_slot = cs;
        best.server_slot = ss;
        best.price = cs.price + ss.price;
      }
    }
    if (cs.end <= ss.end)
      ++i;
    else
      ++j;
  }
  return best;
}

std::string check_window(const ReferenceQuote& expected, SimTime window_start,
                         SimTime window_end, Mist price) {
  if (!expected.found) return "reference quote found no common window";
  if (window_start != expected.window_start ||
      window_end != expected.window_end)
    return "window [" + std::to_string(window_start) + ", " +
           std::to_string(window_end) + ") differs from the reference [" +
           std::to_string(expected.window_start) + ", " +
           std::to_string(expected.window_end) + ")";
  if (price != expected.price)
    return "price " + std::to_string(price) + " differs from the reference " +
           std::to_string(expected.price);
  return {};
}

std::string check_purchase(const ReferenceQuote& expected,
                           SimTime window_start, SimTime window_end,
                           Mist price) {
  if (!expected.found) return "reference quote found no common window";
  ReferenceQuote bought = expected;
  bought.window_start =
      std::max(expected.client_slot.start, expected.server_slot.start);
  bought.window_end =
      std::min(expected.client_slot.end, expected.server_slot.end);
  return check_window(bought, window_start, window_end, price);
}

std::string check_rtt_floor(const std::vector<double>& rtt_ms,
                            std::size_t probes_sent, std::size_t hops,
                            double hop_ms) {
  if (rtt_ms.size() != probes_sent)
    return std::to_string(rtt_ms.size()) + " of " +
           std::to_string(probes_sent) + " probes answered";
  const double hard_floor_ms = static_cast<double>(hops) * hop_ms;
  const double mean_floor_ms =
      2.0 * static_cast<double>(hops) * hop_ms - kJitterAllowanceMs;
  double sum = 0.0;
  for (double rtt : rtt_ms) {
    if (!(rtt >= hard_floor_ms))
      return "round trip " + std::to_string(rtt) +
             " ms below the hard floor " + std::to_string(hard_floor_ms) +
             " ms";
    sum += rtt;
  }
  const double mean = sum / static_cast<double>(rtt_ms.size());
  if (!(mean >= mean_floor_ms))
    return "mean round trip " + std::to_string(mean) + " ms below " +
           std::to_string(mean_floor_ms) + " ms over " +
           std::to_string(hops) + " hops";
  return {};
}

std::string check_calendar(const std::vector<TimeSlot>& before,
                           const std::vector<TimeSlot>& bought,
                           const std::vector<TimeSlot>& after) {
  std::vector<TimeSlot> expected = before;
  for (const TimeSlot& slot : bought) {
    auto it = std::find(expected.begin(), expected.end(), slot);
    if (it == expected.end())
      return "bought slot " + describe(slot) + " was not in the calendar";
    expected.erase(it);
  }
  if (after.size() != expected.size())
    return "calendar holds " + std::to_string(after.size()) +
           " slots, expected " + std::to_string(expected.size());
  for (std::size_t k = 0; k < after.size(); ++k) {
    if (!(after[k] == expected[k]))
      return "calendar slot " + std::to_string(k) + " is " +
             describe(after[k]) + ", expected " + describe(expected[k]);
  }
  return {};
}

std::string check_conservation(Mist minted, Mist balances, Mist escrow,
                               Mist gas) {
  const Mist accounted = balances + escrow + gas;
  if (accounted != minted)
    return "minted " + std::to_string(minted) + " MIST but balances " +
           std::to_string(balances) + " + escrow " + std::to_string(escrow) +
           " + gas " + std::to_string(gas) + " = " +
           std::to_string(accounted);
  return {};
}

Mist scheduled_gas(const debuglet::chain::GasSchedule& gas,
                   const std::vector<std::size_t>& created_object_bytes) {
  Mist total = gas.computation_fee;
  for (std::size_t bytes : created_object_bytes)
    total += gas.storage_fee(bytes);
  return total;
}

std::string self_test_late_window(const ReferenceQuote& expected,
                                  debuglet::SimDuration slot_length) {
  const SimTime start =
      std::max(expected.client_slot.start, expected.server_slot.start);
  const SimTime end =
      std::min(expected.client_slot.end, expected.server_slot.end);
  if (!check_purchase(expected, start, end, expected.price).empty())
    return "window oracle rejected the reference's own window";
  if (check_purchase(expected, start + slot_length, end + slot_length,
                     expected.price)
          .empty())
    return "window oracle accepted a window one slot late";
  return {};
}

std::string self_test_rtt_below_floor(const std::vector<double>& rtt_ms,
                                      std::size_t probes_sent,
                                      std::size_t hops, double hop_ms) {
  if (rtt_ms.empty()) return "no round trips to doctor";
  if (!check_rtt_floor(rtt_ms, probes_sent, hops, hop_ms).empty())
    return "RTT oracle rejected the run's own round trips";
  const std::vector<double> missing(rtt_ms.begin(), rtt_ms.end() - 1);
  if (check_rtt_floor(missing, probes_sent, hops, hop_ms).empty())
    return "RTT oracle accepted a missing probe";
  std::vector<double> below = rtt_ms;
  below.front() = static_cast<double>(hops) * hop_ms * 0.999;
  if (check_rtt_floor(below, probes_sent, hops, hop_ms).empty())
    return "RTT oracle accepted a round trip below the floor";
  std::vector<double> short_hop = rtt_ms;
  for (double& rtt : short_hop) rtt -= 2.0 * hop_ms;
  if (check_rtt_floor(short_hop, probes_sent, hops, hop_ms).empty())
    return "RTT oracle accepted round trips one hop short";
  return {};
}

std::string self_test_extra_slot_removed(const std::vector<TimeSlot>& before,
                                         const std::vector<TimeSlot>& bought,
                                         const std::vector<TimeSlot>& after) {
  if (after.empty()) return "no calendar to doctor";
  std::vector<TimeSlot> doctored = after;
  doctored.erase(doctored.begin() +
                 static_cast<std::ptrdiff_t>(doctored.size() / 2));
  if (check_calendar(before, bought, doctored).empty())
    return "calendar oracle accepted a calendar with an extra slot removed";
  return {};
}

std::string self_test_balance_off_by_one(Mist minted, Mist balances,
                                         Mist escrow, Mist gas) {
  if (check_conservation(minted, balances + 1, escrow, gas).empty())
    return "conservation oracle accepted balances one MIST high";
  return {};
}

}  // namespace perfbench
