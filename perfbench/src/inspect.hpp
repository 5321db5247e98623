// Read-only inspection of committed chain state through the chain's
// public accessors, for the per-layer metrics of the traced run.
#pragma once

#include <map>
#include <string>

#include "chain/chain.hpp"

namespace perfbench {

/// Versions of the marketplace contract's named-state entries.
std::map<std::string, std::uint64_t> marketplace_versions(
    const debuglet::chain::Blockchain& chain);

/// Bytes of marketplace named state written since `before` was taken:
/// the size of every entry that is new or whose version moved.
std::size_t rewritten_bytes(const debuglet::chain::Blockchain& chain,
                            const std::map<std::string, std::uint64_t>& before);

/// Transactions sealed in the blocks from `height` to the tip.
std::uint64_t transactions_since(const debuglet::chain::Blockchain& chain,
                                 std::uint64_t height);

}  // namespace perfbench
