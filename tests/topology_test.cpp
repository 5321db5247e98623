#include <gtest/gtest.h>

#include <map>
#include <set>

#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace debuglet::topology {
namespace {

Topology make_chain(std::size_t n) {
  Topology t;
  for (std::size_t i = 1; i <= n; ++i)
    EXPECT_TRUE(t.add_as(static_cast<AsNumber>(i),
                         "AS" + std::to_string(i)).ok());
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_TRUE(t.add_link({static_cast<AsNumber>(i), 2},
                           {static_cast<AsNumber>(i + 1), 1}).ok());
  return t;
}

TEST(Topology, AddAsRejectsDuplicates) {
  Topology t;
  EXPECT_TRUE(t.add_as(1, "one").ok());
  EXPECT_FALSE(t.add_as(1, "one-again").ok());
  EXPECT_TRUE(t.has_as(1));
  EXPECT_FALSE(t.has_as(2));
  EXPECT_EQ(*t.as_name(1), "one");
  EXPECT_FALSE(t.as_name(2).ok());
}

TEST(Topology, AddLinkValidation) {
  Topology t;
  ASSERT_TRUE(t.add_as(1, "a").ok());
  ASSERT_TRUE(t.add_as(2, "b").ok());
  EXPECT_FALSE(t.add_link({1, 1}, {3, 1}).ok()) << "unknown AS";
  EXPECT_FALSE(t.add_link({1, 1}, {1, 2}).ok()) << "self link";
  EXPECT_FALSE(t.add_link({1, 0}, {2, 1}).ok()) << "interface 0 reserved";
  EXPECT_TRUE(t.add_link({1, 1}, {2, 1}).ok());
  EXPECT_FALSE(t.add_link({1, 1}, {2, 2}).ok()) << "interface reuse";
}

TEST(Topology, RemoteOf) {
  Topology t = make_chain(3);
  auto remote = t.remote_of({1, 2});
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(*remote, (InterfaceKey{2, 1}));
  EXPECT_FALSE(t.remote_of({1, 9}).ok());
  EXPECT_FALSE(t.remote_of({9, 1}).ok());
}

TEST(Topology, LinksReportedOnce) {
  Topology t = make_chain(4);
  const auto links = t.links();
  EXPECT_EQ(links.size(), 3u);
}

TEST(Topology, AddressMapping) {
  Topology t = make_chain(2);
  const InterfaceKey key{1, 2};
  const net::Ipv4Address addr = t.address_of(key);
  EXPECT_EQ(addr.to_string(), "10.0.1.2");
  auto back = t.key_of(addr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, key);
  EXPECT_FALSE(t.key_of(net::Ipv4Address(10, 9, 9, 9)).ok());
}

TEST(Topology, ShortestPathOnChain) {
  Topology t = make_chain(5);
  auto path = t.shortest_path(1, 5);
  ASSERT_TRUE(path.ok()) << path.error_message();
  ASSERT_EQ(path->length(), 5u);
  EXPECT_EQ(path->hops.front().asn, 1u);
  EXPECT_EQ(path->hops.front().ingress, 0);
  EXPECT_EQ(path->hops.front().egress, 2);
  EXPECT_EQ(path->hops[2].ingress, 1);
  EXPECT_EQ(path->hops[2].egress, 2);
  EXPECT_EQ(path->hops.back().asn, 5u);
  EXPECT_EQ(path->hops.back().egress, 0);
}

TEST(Topology, ShortestPathSelf) {
  Topology t = make_chain(2);
  auto path = t.shortest_path(1, 1);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->length(), 1u);
}

TEST(Topology, DisconnectedFails) {
  Topology t;
  ASSERT_TRUE(t.add_as(1, "a").ok());
  ASSERT_TRUE(t.add_as(2, "b").ok());
  EXPECT_FALSE(t.shortest_path(1, 2).ok());
}

TEST(Topology, ShortestPathPrefersFewerHops) {
  // Diamond with a shortcut: 1-2-4 (3 hops) vs 1-3a-3b-4 style longer path.
  Topology t;
  for (AsNumber a : {1u, 2u, 3u, 4u, 5u}) {
    ASSERT_TRUE(t.add_as(a, "AS" + std::to_string(a)).ok());
  }
  ASSERT_TRUE(t.add_link({1, 1}, {2, 1}).ok());
  ASSERT_TRUE(t.add_link({2, 2}, {4, 1}).ok());
  ASSERT_TRUE(t.add_link({1, 2}, {3, 1}).ok());
  ASSERT_TRUE(t.add_link({3, 2}, {5, 1}).ok());
  ASSERT_TRUE(t.add_link({5, 2}, {4, 2}).ok());
  auto path = t.shortest_path(1, 4);
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->length(), 3u);
  EXPECT_EQ(path->hops[1].asn, 2u);
}

TEST(Topology, FindPathsEnumeratesAlternatives) {
  Topology t;
  for (AsNumber a : {1u, 2u, 3u, 4u}) {
    ASSERT_TRUE(t.add_as(a, "").ok());
  }
  // Two disjoint 3-hop paths 1-2-4 and 1-3-4.
  ASSERT_TRUE(t.add_link({1, 1}, {2, 1}).ok());
  ASSERT_TRUE(t.add_link({2, 2}, {4, 1}).ok());
  ASSERT_TRUE(t.add_link({1, 2}, {3, 1}).ok());
  ASSERT_TRUE(t.add_link({3, 2}, {4, 2}).ok());
  auto paths = t.find_paths(1, 4, 10);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].hops[1].asn, 2u) << "deterministic tie-break";
  EXPECT_EQ(paths[1].hops[1].asn, 3u);
}

TEST(Topology, FindPathsRespectsLimitAndMaxHops) {
  Topology t = make_chain(6);
  EXPECT_EQ(t.find_paths(1, 6, 10).size(), 1u);
  EXPECT_TRUE(t.find_paths(1, 6, 10, 3).empty()) << "path needs 6 hops";
  EXPECT_TRUE(t.find_paths(1, 6, 0).empty());
}

/// A random sparse AS graph: a long spanning tree (each AS hangs off one
/// of its two predecessors) plus a few extra links, some parallel.
/// Interface numbers are drawn at random so link-map order differs from
/// AS order. A few ASes are left isolated.
Topology random_topology(Rng& rng, AsNumber n) {
  Topology t;
  for (AsNumber a = 1; a <= n; ++a) EXPECT_TRUE(t.add_as(a, "").ok());
  std::map<AsNumber, std::set<InterfaceId>> used;
  auto fresh = [&](AsNumber a) {
    InterfaceId id;
    do {
      id = static_cast<InterfaceId>(1 + rng.next_below(200));
    } while (!used[a].insert(id).second);
    return id;
  };
  auto link = [&](AsNumber a, AsNumber b) {
    EXPECT_TRUE(t.add_link({a, fresh(a)}, {b, fresh(b)}).ok());
  };
  const AsNumber isolated = n - 2;  // ASes above this stay unlinked
  for (AsNumber a = 2; a <= isolated; ++a)
    link(a, a - 1 - static_cast<AsNumber>(rng.next_below(std::min(a - 1, 2u))));
  for (int extra = 0; extra < 5; ++extra) {
    const auto a = static_cast<AsNumber>(1 + rng.next_below(isolated));
    const auto b = static_cast<AsNumber>(1 + rng.next_below(isolated));
    if (a != b) link(a, b);
  }
  return t;
}

/// Every hop of `path` is joined to the next by a real link.
bool well_formed(const Topology& t, const AsPath& path) {
  for (std::size_t i = 0; i + 1 < path.length(); ++i) {
    const auto [from, to] = path.link_after(i);
    auto remote = t.remote_of(from);
    if (!remote.ok() || *remote != to) return false;
  }
  return true;
}

// shortest_path agrees with the enumerator it replaced wherever the
// enumerator's default 16-AS cap lets it answer, and keeps answering
// beyond the cap with a well-formed path of the right length.
TEST(Topology, ShortestPathMatchesFindPathsWithinItsCap) {
  std::size_t compared = 0, beyond_cap = 0, disconnected = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const AsNumber n = 48;
    const Topology t = random_topology(rng, n);
    for (int trial = 0; trial < 150; ++trial) {
      // Every other pair joins the two ends of the tree, where paths are
      // longest.
      const bool ends = trial % 2 == 1;
      const auto src = static_cast<AsNumber>(
          1 + rng.next_below(ends ? 8 : n));
      const auto dst = static_cast<AsNumber>(
          ends ? n - 12 + rng.next_below(12) : 1 + rng.next_below(n));
      const auto capped = t.find_paths(src, dst, 1);
      const auto uncapped = t.find_paths(src, dst, 1, n);
      const auto path = t.shortest_path(src, dst);
      if (uncapped.empty()) {
        EXPECT_FALSE(path.ok()) << src << "->" << dst;
        ++disconnected;
        continue;
      }
      ASSERT_TRUE(path.ok()) << src << "->" << dst;
      EXPECT_EQ(*path, uncapped.front()) << src << "->" << dst;
      if (!capped.empty()) {
        EXPECT_EQ(*path, capped.front()) << src << "->" << dst;
        ++compared;
      } else {
        EXPECT_GT(path->length(), 16u);
        EXPECT_TRUE(well_formed(t, *path));
        ++beyond_cap;
      }
    }
  }
  // The sample reaches all three regimes.
  EXPECT_GT(compared, 0u);
  EXPECT_GT(beyond_cap, 0u);
  EXPECT_GT(disconnected, 0u);
}

/// AS1..ASn closed into a ring (interface 1 faces the previous AS, 2 the
/// next).
Topology make_ring(AsNumber n) {
  Topology t = make_chain(n);
  EXPECT_TRUE(t.add_link({n, 2}, {1, 1}).ok());
  return t;
}

TEST(Topology, ShortestPathResolvesLongRingPaths) {
  const Topology t = make_ring(1000);
  // 16 links: one past find_paths's default cap.
  EXPECT_TRUE(t.find_paths(1, 17, 1).empty());
  auto near = t.shortest_path(1, 17);
  ASSERT_TRUE(near.ok());
  ASSERT_EQ(near->length(), 17u);
  for (std::size_t i = 0; i < near->length(); ++i)
    EXPECT_EQ(near->hops[i].asn, 1 + i);
  EXPECT_TRUE(well_formed(t, *near));

  // 500 links both ways round: the tie goes to AS1's lower interface,
  // which faces AS1000.
  auto far = t.shortest_path(1, 501);
  ASSERT_TRUE(far.ok());
  ASSERT_EQ(far->length(), 501u);
  EXPECT_EQ(far->hops[1].asn, 1000u);
  EXPECT_EQ(far->hops.back().asn, 501u);
  EXPECT_TRUE(well_formed(t, *far));
}

TEST(Topology, ShortestPathUnknownAsFails) {
  const Topology t = make_chain(3);
  EXPECT_FALSE(t.shortest_path(1, 9).ok());
  EXPECT_FALSE(t.shortest_path(9, 1).ok());
}

TEST(AsPath, LinkAfter) {
  Topology t = make_chain(3);
  auto path = *t.shortest_path(1, 3);
  const auto [from, to] = path.link_after(0);
  EXPECT_EQ(from, (InterfaceKey{1, 2}));
  EXPECT_EQ(to, (InterfaceKey{2, 1}));
  EXPECT_THROW(path.link_after(2), std::out_of_range);
}

TEST(AsPath, SubpathZeroesOuterInterfaces) {
  Topology t = make_chain(5);
  auto path = *t.shortest_path(1, 5);
  auto sub = path.subpath(1, 3);
  ASSERT_EQ(sub.length(), 3u);
  EXPECT_EQ(sub.hops.front().asn, 2u);
  EXPECT_EQ(sub.hops.front().ingress, 0);
  EXPECT_NE(sub.hops.front().egress, 0);
  EXPECT_EQ(sub.hops.back().egress, 0);
  EXPECT_THROW(path.subpath(3, 1), std::out_of_range);
  EXPECT_THROW(path.subpath(0, 9), std::out_of_range);
}

TEST(AsPath, ReversePath) {
  Topology t = make_chain(4);
  auto path = *t.shortest_path(1, 4);
  auto rev = reverse_path(path);
  ASSERT_EQ(rev.length(), 4u);
  EXPECT_EQ(rev.hops.front().asn, 4u);
  EXPECT_EQ(rev.hops.front().ingress, 0);
  EXPECT_EQ(rev.hops.back().asn, 1u);
  EXPECT_EQ(rev.hops.back().egress, 0);
  // Reversing twice is the identity.
  EXPECT_EQ(reverse_path(rev), path);
}

TEST(InterfaceKey, Formatting) {
  EXPECT_EQ((InterfaceKey{64500, 3}).to_string(), "AS64500#3");
}

}  // namespace
}  // namespace debuglet::topology
