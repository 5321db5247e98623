#include "inspect.hpp"

#include "marketplace/contract.hpp"

namespace perfbench {

using debuglet::chain::Blockchain;

std::map<std::string, std::uint64_t> marketplace_versions(
    const Blockchain& chain) {
  const std::string prefix = debuglet::chain::named_access_key(
      debuglet::marketplace::kContractName, "");
  std::map<std::string, std::uint64_t> out;
  for (auto it = chain.named_state().lower_bound(prefix);
       it != chain.named_state().end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    out.emplace(it->first, it->second.version);
  return out;
}

std::size_t rewritten_bytes(
    const Blockchain& chain,
    const std::map<std::string, std::uint64_t>& before) {
  std::size_t bytes = 0;
  for (const auto& [key, version] : marketplace_versions(chain)) {
    auto it = before.find(key);
    if (it == before.end() || it->second != version)
      bytes += chain.named_entry(key)->data.size();
  }
  return bytes;
}

std::uint64_t transactions_since(const Blockchain& chain,
                                 std::uint64_t height) {
  std::uint64_t txs = 0;
  for (std::uint64_t h = height; h < chain.height(); ++h)
    txs += chain.block(h).transaction_digests.size();
  return txs;
}

}  // namespace perfbench
