#include <gtest/gtest.h>

#include "core/measure.hpp"
#include "dist/network.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "parma/metrics.hpp"
#include "part/partition.hpp"
#include "repro/table.hpp"
#include "repro/workloads.hpp"

namespace {

using core::Ent;
using dist::PartId;

TEST(Network, SendDeliverRoundTrip) {
  dist::Network net(dist::PartMap(3, pcu::Machine::flat(3)));
  pcu::OutBuffer b;
  b.pack<int>(42);
  net.send(0, 2, std::move(b));
  EXPECT_TRUE(net.pending());
  int received = 0;
  net.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    EXPECT_EQ(to, 2);
    EXPECT_EQ(from, 0);
    EXPECT_EQ(body.unpack<int>(), 42);
    ++received;
  });
  EXPECT_EQ(received, 1);
  EXPECT_FALSE(net.pending());
}

TEST(Network, HandlerPostsGoToNextRound) {
  dist::Network net(dist::PartMap(2, pcu::Machine::flat(2)));
  pcu::OutBuffer b;
  b.pack<int>(1);
  net.send(0, 1, std::move(b));
  int first_round = 0;
  net.deliverAll([&](PartId, PartId, pcu::InBuffer body) {
    ++first_round;
    const int v = body.unpack<int>();
    if (v == 1) {
      pcu::OutBuffer reply;
      reply.pack<int>(2);
      net.send(1, 0, std::move(reply));
    }
  });
  EXPECT_EQ(first_round, 1);
  EXPECT_TRUE(net.pending());  // the reply waits for the next superstep
  int second_round = 0;
  net.deliverAll([&](PartId, PartId, pcu::InBuffer body) {
    EXPECT_EQ(body.unpack<int>(), 2);
    ++second_round;
  });
  EXPECT_EQ(second_round, 1);
}

TEST(Network, DeterministicDeliveryOrder) {
  dist::Network net(dist::PartMap(2, pcu::Machine::flat(2)));
  for (int i = 0; i < 5; ++i) {
    pcu::OutBuffer b;
    b.pack<int>(i);
    net.send(0, 1, std::move(b));
  }
  std::vector<int> order;
  net.deliverAll([&](PartId, PartId, pcu::InBuffer body) {
    order.push_back(body.unpack<int>());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

/// Run one fixed traffic pattern through a Network: `per_pair` payloads for
/// each (from, to) pair of a 2-node/4-part machine, crossing both on-node
/// and off-node edges. Returns the stats after delivery.
pcu::CommStats runPattern(bool coalesce, int per_pair,
                          std::size_t* delivered = nullptr) {
  dist::Network net(dist::PartMap(4, pcu::Machine(2, 2)));
  net.setCoalescing(coalesce);
  for (PartId from = 0; from < 4; ++from)
    for (PartId to = 0; to < 4; ++to) {
      if (to == from) continue;
      for (int i = 0; i < per_pair; ++i) {
        pcu::OutBuffer b;
        b.pack<int>(i);
        b.pack<int>(static_cast<int>(from) * 100 + static_cast<int>(to));
        net.send(from, to, std::move(b));
      }
    }
  // One counter per destination: handlers of different parts run
  // concurrently and may write only their own part's state.
  std::vector<std::size_t> count(4, 0);
  net.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    EXPECT_LT(body.unpack<int>(), per_pair);
    EXPECT_EQ(body.unpack<int>(),
              static_cast<int>(from) * 100 + static_cast<int>(to));
    ++count[static_cast<std::size_t>(to)];
  });
  if (delivered) *delivered = count[0] + count[1] + count[2] + count[3];
  return net.stats();
}

TEST(Network, StatsSplitLogicalFromPhysicalAndCoalescingPreservesTotals) {
  const int per_pair = 8;
  std::size_t delivered_on = 0, delivered_off = 0;
  const auto with = runPattern(true, per_pair, &delivered_on);
  const auto without = runPattern(false, per_pair, &delivered_off);
  // Same logical traffic delivered either way.
  EXPECT_EQ(delivered_on, delivered_off);
  EXPECT_EQ(delivered_on, static_cast<std::size_t>(4 * 3 * per_pair));
  // Logical counters and the on/off-node byte split are invariant under
  // coalescing; only the physical counters may differ.
  EXPECT_EQ(with.messages_sent, without.messages_sent);
  EXPECT_EQ(with.bytes_sent, without.bytes_sent);
  EXPECT_EQ(with.on_node_messages, without.on_node_messages);
  EXPECT_EQ(with.on_node_bytes, without.on_node_bytes);
  EXPECT_EQ(with.off_node_messages, without.off_node_messages);
  EXPECT_EQ(with.off_node_bytes, without.off_node_bytes);
  // Physical never exceeds logical; coalescing collapses each pair's
  // `per_pair` payloads into one segment, uncoalesced ships one each.
  EXPECT_LE(with.physical_messages, with.messages_sent);
  EXPECT_LE(without.physical_messages, without.messages_sent);
  EXPECT_EQ(with.physical_messages, 4u * 3u);
  EXPECT_EQ(without.physical_messages, without.messages_sent);
}

TEST(PartMap, ExplicitRanksOverrideBlockLayout) {
  dist::PartMap map(4, pcu::Machine(2, 2));
  EXPECT_EQ(map.rankOf(0), 0);
  EXPECT_EQ(map.rankOf(3), 3);
  EXPECT_TRUE(map.sameNode(0, 1));
  EXPECT_FALSE(map.sameNode(1, 2));
  map.setPartRanks({3, 2, 1, 0});
  EXPECT_EQ(map.rankOf(0), 3);
  EXPECT_TRUE(map.sameNode(0, 1));   // ranks 3, 2: node 1
  EXPECT_FALSE(map.sameNode(1, 2));  // ranks 2, 1
}

TEST(Balance, FacadeFixesAdaptationSpike) {
  auto gen = meshgen::boxTets(6, 6, 6);
  // Fold several stripes to create adjacent spikes + overload.
  std::vector<PartId> dest(gen.mesh->count(3));
  std::vector<std::pair<double, std::size_t>> order;
  std::size_t i = 0;
  for (Ent e : gen.mesh->entities(3))
    order.emplace_back(core::centroid(*gen.mesh, e).x, i++);
  std::sort(order.begin(), order.end());
  for (std::size_t k = 0; k < order.size(); ++k)
    dest[order[k].second] = static_cast<PartId>(k * 16 / order.size());
  for (auto& d : dest)
    if (d >= 5 && d < 11 && d % 2 == 1) d -= 1;
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), dest,
      dist::PartMap(16, pcu::Machine::flat(16)));
  const auto report = parma::balance(*pm, "Rgn", {.tolerance = 0.05});
  pm->verify();
  EXPECT_TRUE(report.converged);
  EXPECT_LE(report.final_imbalance, 1.05 + 1e-9);
  EXPECT_GT(report.initial_imbalance, 1.5);
  EXPECT_GT(report.elements_migrated, 0u);
  // Balance rounds ride on the coalescing transport: the report's traffic
  // delta must show fewer (never more) physical messages than payloads.
  EXPECT_GT(report.messages_logical, 0u);
  EXPECT_LE(report.messages_physical, report.messages_logical);
}

TEST(Balance, MultiCriteriaFacade) {
  auto w = repro::makeAaa(repro::Scale::Small);
  auto pm = repro::distributeT0(w, nullptr);
  const auto report = parma::balance(*pm, "Vtx>Rgn", {.tolerance = 0.06});
  pm->verify();
  EXPECT_LE(parma::entityBalance(*pm, 0).imbalance, 1.07);
  EXPECT_GE(report.rounds, 1);
}

TEST(ReproTable, FormatsAndAligns) {
  repro::Table t({"a", "long-header"});
  t.row({"x", "1"});
  t.row({"yyyyy", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("yyyyy"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(repro::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(repro::fmt(std::size_t{42}), "42");
}

TEST(ReproScale, EnvSelection) {
  ::setenv("PUMI_REPRO_SCALE", "small", 1);
  EXPECT_EQ(repro::scaleFromEnv(), repro::Scale::Small);
  ::setenv("PUMI_REPRO_SCALE", "large", 1);
  EXPECT_EQ(repro::scaleFromEnv(), repro::Scale::Large);
  ::setenv("PUMI_REPRO_SCALE", "bogus", 1);
  EXPECT_EQ(repro::scaleFromEnv(), repro::Scale::Default);
  ::unsetenv("PUMI_REPRO_SCALE");
  EXPECT_EQ(repro::scaleFromEnv(), repro::Scale::Default);
  EXPECT_STREQ(repro::scaleName(repro::Scale::Small), "small");
}

}  // namespace
