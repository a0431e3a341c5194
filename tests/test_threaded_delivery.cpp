#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "adapt/sizefield.hpp"
#include "core/measure.hpp"
#include "core/verify.hpp"
#include "dist/padapt.hpp"
#include "dist/partedmesh.hpp"
#include "field/field.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "parma/metrics.hpp"
#include "part/partition.hpp"
#include "pcu/error.hpp"
#include "solver/poisson.hpp"

namespace {

using core::Ent;
using dist::PartId;

/// All distributed operations must produce semantically identical results
/// under threaded part processing (paper Sec. II-D: "part manipulations
/// take place in parallel threads").

std::unique_ptr<dist::PartedMesh> parted(meshgen::Generated& gen, int nparts,
                                         int threads) {
  const auto assign =
      part::partition(*gen.mesh, nparts, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine(2, (nparts + 1) / 2)));
  pm->network().setDeliveryThreads(threads);
  return pm;
}

class ThreadCounts : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCounts, MigrationUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = parted(gen, 4, threads);
  dist::MigrationPlan plan(4);
  for (Ent e : pm->part(0).elements())
    if (core::centroid(pm->part(0).mesh(), e).x > 0.4) plan[0][e] = 2;
  for (Ent e : pm->part(1).elements())
    if (core::centroid(pm->part(1).mesh(), e).y > 0.6) plan[1][e] = 3;
  pm->migrate(plan);
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST_P(ThreadCounts, GhostingUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = parted(gen, 4, threads);
  pm->ghostLayers(1);
  pm->verify();
  std::size_t ghosts = 0;
  for (PartId p = 0; p < 4; ++p) ghosts += pm->part(p).ghostCount();
  EXPECT_GT(ghosts, 0u);
  pm->unghost();
  pm->verify();
}

TEST_P(ThreadCounts, ParallelAdaptUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = parted(gen, 3, threads);
  dist::refineParted(*pm, adapt::UniformSize(0.3), {.max_passes = 6});
  pm->verify();
  for (PartId p = 0; p < 3; ++p)
    core::verify(pm->part(p).mesh(), {.check_volumes = true});
}

TEST_P(ThreadCounts, BalanceUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(4, 4, 4);
  // Spiked distribution.
  std::vector<PartId> dest(gen.mesh->count(3));
  std::size_t i = 0;
  for (Ent e : gen.mesh->entities(3)) {
    (void)e;
    dest[i] = static_cast<PartId>(i * 8 / dest.size());
    ++i;
  }
  for (auto& d : dest)
    if (d == 3) d = 2;
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), dest,
      dist::PartMap(8, pcu::Machine(2, 4)));
  pm->network().setDeliveryThreads(threads);
  const auto report = parma::balance(*pm, "Rgn", {.tolerance = 0.05});
  pm->verify();
  EXPECT_LE(report.final_imbalance, 1.10);
}

TEST_P(ThreadCounts, SolverUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = parted(gen, 4, threads);
  auto exact = [](const common::Vec3& x) { return x.x + 2.0 * x.y - x.z; };
  const auto report = solver::solvePoisson(
      *pm, [](const common::Vec3&) { return 0.0; }, exact,
      {.tolerance = 1e-11});
  EXPECT_TRUE(report.converged);
  for (PartId p = 0; p < 4; ++p) {
    auto& mesh = pm->part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0))
      EXPECT_NEAR(u.getScalar(v), exact(mesh.point(v)), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCounts, ::testing::Values(2, 4, 8));

TEST(ThreadedDelivery, SameGlobalCountsAsSequential) {
  adapt::UniformSize size(0.3);
  auto gen_seq = meshgen::boxTets(2, 2, 2);
  auto pm_seq = parted(gen_seq, 4, 0);
  dist::refineParted(*pm_seq, size, {.max_passes = 6});
  auto gen_thr = meshgen::boxTets(2, 2, 2);
  auto pm_thr = parted(gen_thr, 4, 4);
  dist::refineParted(*pm_thr, size, {.max_passes = 6});
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm_thr->globalCount(d), pm_seq->globalCount(d)) << "dim " << d;
}

/// --- the part pool ---------------------------------------------------------
///
/// Network::forEachPart and deliverAll run on one process-wide pool. Every
/// property below is checked at width 1 (every loop on the calling thread)
/// and at width 4.

std::unique_ptr<dist::Network> network(int parts, int width) {
  auto net = std::make_unique<dist::Network>(
      dist::PartMap(parts, pcu::Machine(2, (parts + 1) / 2)));
  net->setDeliveryThreads(width);
  return net;
}

class PoolWidths : public ::testing::TestWithParam<int> {};

TEST_P(PoolWidths, EveryPartIsVisitedExactlyOnce) {
  auto net = network(37, GetParam());
  std::vector<std::atomic<int>> visits(37);
  net->forEachPart([&](PartId p) { ++visits[static_cast<std::size_t>(p)]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST_P(PoolWidths, LowestPartErrorIsRethrownAfterEveryTask) {
  auto net = network(16, GetParam());
  std::vector<std::atomic<int>> done(16);
  try {
    net->forEachPart([&](PartId p) {
      done[static_cast<std::size_t>(p)] = 1;
      if (p == 11 || p == 5 || p == 13)
        throw std::runtime_error("part " + std::to_string(p));
    });
    FAIL() << "no error surfaced";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "part 5");
  }
  for (const auto& d : done) EXPECT_EQ(d.load(), 1);
}

TEST_P(PoolWidths, NestedLoopsComplete) {
  auto net = network(8, GetParam());
  std::vector<std::atomic<int>> visits(64);
  net->forEachPart([&](PartId outer) {
    net->forEachPart([&](PartId inner) {
      ++visits[static_cast<std::size_t>(outer * 8 + inner)];
    });
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

/// Two threads, each driving its own PartedMesh through a solve and a
/// verify at the same time: one holds the pool, the other runs inline, and
/// both match a run made alone.
TEST_P(PoolWidths, ConcurrentCallersOnTwoMeshesComplete) {
  const auto solve = [&](double shift) {
    auto gen = meshgen::boxTets(3, 3, 3);
    auto pm = parted(gen, 4, GetParam());
    const auto report = solver::solvePoisson(
        *pm, [](const common::Vec3&) { return 1.0; },
        [shift](const common::Vec3& x) { return x.x + shift; },
        {.tolerance = 1e-11});
    pm->verify();
    return std::make_tuple(report.iterations, report.residual,
                           pm->fingerprint());
  };
  const auto alone_a = solve(0.0);
  const auto alone_b = solve(1.0);
  decltype(solve(0.0)) got_a, got_b;
  std::thread other([&] { got_b = solve(1.0); });
  got_a = solve(0.0);
  other.join();
  EXPECT_EQ(got_a, alone_a);
  EXPECT_EQ(got_b, alone_b);
}

/// Three rounds of handler replies: the (to, from, body) sequence each part
/// receives and the network stats are the same at width 1 and width 4.
TEST(PoolDelivery, SequenceAndStatsMatchAtWidthsOneAndFour) {
  using Log = std::vector<std::tuple<PartId, PartId, std::vector<std::byte>>>;
  const auto run = [](int width) {
    constexpr int kParts = 9;
    auto net = network(kParts, width);
    for (PartId p = 0; p < kParts; ++p)
      for (PartId q : {(p + 1) % kParts, (p * 4 + 2) % kParts}) {
        pcu::OutBuffer b;
        b.pack<std::int32_t>(p * 100 + q);
        net->send(p, q, std::move(b));
      }
    std::vector<Log> logs(kParts);
    for (int round = 0; round < 3; ++round) {
      net->deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
        const auto v = body.unpack<std::int32_t>();
        std::vector<std::byte> bytes(sizeof v);
        std::memcpy(bytes.data(), &v, sizeof v);
        logs[static_cast<std::size_t>(to)].emplace_back(to, from, bytes);
        for (PartId q : {(to * 7 + from) % kParts, (v + round) % kParts}) {
          pcu::OutBuffer b;
          b.pack<std::int32_t>(v * 3 + to);
          net->send(to, q, std::move(b));
        }
      });
    }
    Log all;
    for (const auto& l : logs) all.insert(all.end(), l.begin(), l.end());
    const auto& st = net->stats();
    return std::make_tuple(all, st.messages_sent, st.bytes_sent,
                           st.physical_messages, st.physical_bytes,
                           st.on_node_messages, st.off_node_messages);
  };
  const auto serial = run(1);
  EXPECT_EQ(std::get<0>(serial).size(), 9u * 2 * (1 + 2 + 4));
  EXPECT_EQ(run(4), serial);
}

/// A truncated body reaches its handler through deliverAll: the unpack
/// raises pcu::Error(kValidation), and the driver thread receives it.
TEST_P(PoolWidths, TruncatedBodyIsAValidationErrorOnTheDriver) {
  auto net = network(6, GetParam());
  for (PartId p = 0; p < 6; ++p) {
    pcu::OutBuffer b;
    if (p == 3)
      b.pack<std::uint16_t>(7);  // two bytes where eight are read
    else
      b.pack<std::uint64_t>(7);
    net->send(p, (p + 1) % 6, std::move(b));
  }
  const auto driver = std::this_thread::get_id();
  try {
    net->deliverAll([](PartId, PartId, pcu::InBuffer body) {
      (void)body.unpack<std::uint64_t>();
    });
    FAIL() << "the truncated body was accepted";
  } catch (const pcu::Error& e) {
    EXPECT_EQ(e.code(), pcu::ErrorCode::kValidation);
    EXPECT_EQ(std::this_thread::get_id(), driver);
  }
}

INSTANTIATE_TEST_SUITE_P(Width, PoolWidths, ::testing::Values(1, 4));

}  // namespace
