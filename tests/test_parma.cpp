#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/measure.hpp"
#include "dist/digest.hpp"
#include "meshgen/boxmesh.hpp"
#include "meshgen/workloads.hpp"
#include "parma/balance.hpp"
#include "parma/heavysplit.hpp"
#include "parma/improve.hpp"
#include "parma/metrics.hpp"
#include "parma/priority.hpp"
#include "part/partition.hpp"

namespace {

using core::Ent;
using dist::PartId;

TEST(Priority, ParseSingle) {
  const auto p = parma::parsePriority("Rgn");
  ASSERT_EQ(p.levels.size(), 1u);
  EXPECT_EQ(p.levels[0], (parma::Level{3}));
  EXPECT_EQ(p.describe(), "Rgn");
}

TEST(Priority, ParsePaperExamples) {
  const auto t1 = parma::parsePriority("Vtx>Rgn");
  ASSERT_EQ(t1.levels.size(), 2u);
  EXPECT_EQ(t1.levels[0], (parma::Level{0}));
  EXPECT_EQ(t1.levels[1], (parma::Level{3}));

  const auto t2 = parma::parsePriority("Vtx=Edge>Rgn");
  ASSERT_EQ(t2.levels.size(), 2u);
  EXPECT_EQ(t2.levels[0], (parma::Level{0, 1}));  // ascending dim

  const auto big = parma::parsePriority("Rgn > Face = Edge > Vtx");
  ASSERT_EQ(big.levels.size(), 3u);
  EXPECT_EQ(big.levels[0], (parma::Level{3}));
  EXPECT_EQ(big.levels[1], (parma::Level{1, 2}));
  EXPECT_EQ(big.levels[2], (parma::Level{0}));
  EXPECT_EQ(big.describe(), "Rgn > Edge = Face > Vtx");
}

TEST(Priority, HigherLowerQueries) {
  const auto p = parma::parsePriority("Rgn>Face=Edge>Vtx");
  EXPECT_EQ(p.higherThan(0), (std::vector<int>{}));
  EXPECT_EQ(p.higherThan(1), (std::vector<int>{3}));
  EXPECT_EQ(p.lowerThan(1), (std::vector<int>{0}));
  EXPECT_EQ(p.lowerThan(0), (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(p.allDims(), (std::vector<int>{3, 1, 2, 0}));
}

TEST(Priority, RejectsMalformed) {
  EXPECT_THROW(parma::parsePriority(""), std::invalid_argument);
  EXPECT_THROW(parma::parsePriority("Vtx>>Rgn"), std::invalid_argument);
  EXPECT_THROW(parma::parsePriority("Blob"), std::invalid_argument);
  EXPECT_THROW(parma::parsePriority("Vtx>Vtx"), std::invalid_argument);
  EXPECT_THROW(parma::parsePriority("Vtx>"), std::invalid_argument);
}

TEST(Metrics, BalanceOfUniformStripes) {
  auto gen = meshgen::boxTets(4, 2, 2);
  std::vector<PartId> dest(gen.mesh->count(3));
  for (std::size_t i = 0; i < dest.size(); ++i)
    dest[i] = static_cast<PartId>(i * 4 / dest.size());
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(4, pcu::Machine::flat(4)));
  const auto b = parma::entityBalance(*pm, 3);
  EXPECT_EQ(b.per_part.size(), 4u);
  EXPECT_EQ(b.peak, 24u);
  EXPECT_DOUBLE_EQ(b.mean, 24.0);
  EXPECT_DOUBLE_EQ(b.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(b.imbalancePercent(), 0.0);
  // Vertex balance counts duplicated boundary copies.
  const auto bv = parma::entityBalance(*pm, 0);
  std::size_t local_sum = 0;
  for (auto c : bv.per_part) local_sum += c;
  EXPECT_GT(local_sum, gen.mesh->count(0));  // duplication
  EXPECT_GT(parma::boundaryCopies(*pm, 0), 0u);
}

TEST(Metrics, HistogramBinsCoverParts) {
  parma::Balance b;
  b.per_part = {10, 10, 10, 10, 40, 2};
  b.mean = 82.0 / 6.0;
  b.peak = 40;
  b.imbalance = 40.0 / b.mean;
  const auto h = parma::imbalanceHistogram(b, 5);
  ASSERT_EQ(h.frequency.size(), 5u);
  std::size_t total = 0;
  for (auto f : h.frequency) total += f;
  EXPECT_EQ(total, 6u);
  // The peak lands in the last bin.
  EXPECT_GE(h.frequency.back(), 1u);
}

/// Build a deliberately element-imbalanced partition: part 0 takes an extra
/// slab of part 1's elements.
std::unique_ptr<dist::PartedMesh> imbalancedPartition(
    const meshgen::Generated& gen, int nparts, double spike_frac) {
  const auto g = part::buildElemGraph(*gen.mesh);
  auto base = part::partitionGraph(g, nparts, part::Method::GraphRB);
  // Steal elements from part 1 into part 0 until part 0 holds
  // (1 + spike_frac) of its fair share.
  const std::size_t fair = gen.mesh->count(3) / static_cast<std::size_t>(nparts);
  std::size_t want = static_cast<std::size_t>(spike_frac * fair);
  for (std::size_t i = 0; i < base.size() && want > 0; ++i) {
    if (base[i] == 1) {
      base[i] = 0;
      --want;
    }
  }
  return dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), base,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
}

TEST(Improve, RegionBalanceConverges) {
  auto gen = meshgen::boxTets(6, 6, 6);
  auto pm = imbalancedPartition(gen, 8, 0.5);
  const double before = parma::entityBalance(*pm, 3).imbalance;
  ASSERT_GT(before, 1.2);
  const auto report = parma::improve(*pm, "Rgn", {.tolerance = 0.05});
  pm->verify();
  ASSERT_EQ(report.levels.size(), 1u);
  EXPECT_EQ(report.levels[0].dim, 3);
  EXPECT_LE(report.levels[0].final_imbalance, 1.05 + 1e-9);
  EXPECT_TRUE(report.levels[0].converged);
  EXPECT_GT(report.totalMigrated(), 0u);
  // Mesh integrity preserved.
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Improve, VertexBalanceConverges) {
  auto gen = meshgen::vessel({.circumferential = 6, .axial = 24});
  auto pm = imbalancedPartition(gen, 8, 0.4);
  const double before = parma::entityBalance(*pm, 0).imbalance;
  ASSERT_GT(before, 1.1);
  const auto report = parma::improve(*pm, "Vtx>Rgn", {.tolerance = 0.05});
  pm->verify();
  ASSERT_EQ(report.levels.size(), 2u);
  // An adversarial stolen-slab spike at this granularity plateaus slightly
  // above the 5% tolerance; require a large reduction and a sane endpoint.
  // (The paper-shaped experiment, bench_parma_tables, reaches ~5%.)
  EXPECT_LE(report.levels[0].final_imbalance, 1.09) << "vertex imbalance";
  EXPECT_LT(report.levels[0].final_imbalance,
            report.levels[0].initial_imbalance - 0.03);
  // Region imbalance may grow, but stays moderate (paper: 4.3% -> ~6%).
  EXPECT_LE(report.levels[1].final_imbalance, 1.15);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Improve, MultiCriteriaRespectsHigherPriority) {
  auto gen = meshgen::boxTets(6, 6, 6);
  auto pm = imbalancedPartition(gen, 8, 0.5);
  // First balance regions strictly, then edges without harming regions.
  const auto report = parma::improve(*pm, "Rgn>Edge", {.tolerance = 0.05});
  pm->verify();
  ASSERT_EQ(report.levels.size(), 2u);
  EXPECT_EQ(report.levels[0].dim, 3);
  EXPECT_EQ(report.levels[1].dim, 1);
  // After everything, region balance still within tolerance (+ slack for
  // boundary-entity churn during edge balancing).
  EXPECT_LE(parma::entityBalance(*pm, 3).imbalance, 1.10);
}

TEST(Improve, AlreadyBalancedIsNoOp) {
  auto gen = meshgen::boxTets(4, 4, 4);
  const auto assign = part::partition(*gen.mesh, 4, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), assign,
                                         dist::PartMap(4, pcu::Machine::flat(4)));
  const double rgn_before = parma::entityBalance(*pm, 3).imbalance;
  ASSERT_LE(rgn_before, 1.05);
  const auto report = parma::improve(*pm, "Rgn", {.tolerance = 0.05});
  EXPECT_EQ(report.levels[0].iterations, 0);
  EXPECT_EQ(report.totalMigrated(), 0u);
}

TEST(Improve, ReducesBoundaryOrKeepsItModerate) {
  auto gen = meshgen::vessel({.circumferential = 6, .axial = 20});
  auto pm = imbalancedPartition(gen, 6, 0.4);
  const std::size_t boundary_before = parma::boundaryCopies(*pm, 0);
  parma::improve(*pm, "Vtx>Rgn", {.tolerance = 0.05});
  const std::size_t boundary_after = parma::boundaryCopies(*pm, 0);
  // Careful element selection must not blow the boundary up (paper: the
  // total number of boundary entities is *reduced*).
  EXPECT_LE(boundary_after, boundary_before * 11 / 10);
}

TEST(Improve, TwoDimensionalMesh) {
  auto gen = meshgen::boxTris(16, 16);
  const auto g = part::buildElemGraph(*gen.mesh);
  auto assign = part::partitionGraph(g, 6, part::Method::GraphRB);
  // Spike part 0.
  std::size_t steal = 30;
  for (std::size_t i = 0; i < assign.size() && steal > 0; ++i)
    if (assign[i] == 1) {
      assign[i] = 0;
      --steal;
    }
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), assign,
                                         dist::PartMap(6, pcu::Machine::flat(6)));
  const auto report = parma::improve(*pm, "Face", {.tolerance = 0.05});
  pm->verify();
  EXPECT_LE(report.levels[0].final_imbalance,
            report.levels[0].initial_imbalance);
  EXPECT_LE(report.levels[0].final_imbalance, 1.08);
}

TEST(HeavySplit, SplitsMegapartIntoEmptyParts) {
  auto gen = meshgen::boxTets(6, 6, 6);
  // Pathological: part 0 has ~half the mesh; parts 1-3 empty; 4-7 normal.
  std::vector<PartId> dest(gen.mesh->count(3));
  const auto g = part::buildElemGraph(*gen.mesh);
  const auto base = part::partitionGraph(g, 8, part::Method::RCB);
  for (std::size_t i = 0; i < dest.size(); ++i)
    dest[i] = base[i] <= 3 ? 0 : base[i];  // merge parts 0-3 into a megapart
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(8, pcu::Machine::flat(8)));
  const double before = parma::entityBalance(*pm, 3).imbalance;
  ASSERT_GT(before, 2.0);
  const auto report = parma::heavyPartSplit(*pm, {.tolerance = 0.05});
  pm->verify();
  // No merging needed (empties pre-exist); the megapart must be split.
  EXPECT_GT(report.parts_split, 0);
  EXPECT_LT(report.final_imbalance, before * 0.6);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(HeavySplit, MergesLightNeighborsThenSplits) {
  auto gen = meshgen::boxTets(8, 4, 4);
  // X-striped parts 0..7; drain parts 2 and 3 into part 1: part 1 becomes
  // a ~2.6x spike while 2 and 3 are light neighbours of each other.
  std::vector<std::pair<double, std::size_t>> order;
  std::size_t idx = 0;
  for (Ent e : gen.mesh->entities(3))
    order.emplace_back(core::centroid(*gen.mesh, e).x, idx++);
  std::sort(order.begin(), order.end());
  std::vector<PartId> dest(order.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    dest[order[k].second] = static_cast<PartId>(k * 8 / order.size());
  common::Rng rng(5);
  for (std::size_t i = 0; i < dest.size(); ++i)
    if ((dest[i] == 2 || dest[i] == 3) && rng.uniform() < 0.8) dest[i] = 1;
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(8, pcu::Machine::flat(8)));
  const double before = parma::entityBalance(*pm, 3).imbalance;
  ASSERT_GT(before, 1.8);
  const auto report = parma::heavyPartSplit(*pm, {.tolerance = 0.05});
  pm->verify();
  EXPECT_GT(report.merges, 0);
  EXPECT_GT(report.parts_emptied, 0);
  EXPECT_GT(report.parts_split, 0);
  EXPECT_LT(report.final_imbalance, before * 0.7);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(HeavySplit, FollowedByDiffusionReachesTolerance) {
  auto gen = meshgen::boxTets(6, 6, 6);
  std::vector<PartId> dest(gen.mesh->count(3));
  const auto g = part::buildElemGraph(*gen.mesh);
  const auto base = part::partitionGraph(g, 8, part::Method::RCB);
  for (std::size_t i = 0; i < dest.size(); ++i)
    dest[i] = base[i] <= 2 ? 0 : base[i];
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(8, pcu::Machine::flat(8)));
  parma::heavyPartSplit(*pm, {.tolerance = 0.05});
  const auto report = parma::improve(*pm, "Rgn", {.tolerance = 0.08});
  pm->verify();
  EXPECT_LE(report.levels[0].final_imbalance, 1.12);
}

TEST(Improve, WeightedElementBalancing) {
  // Element counts are perfectly balanced, but weights (e.g. predicted
  // post-adaptation counts) are skewed: weighted diffusion must move
  // elements until the weighted balance meets tolerance.
  auto gen = meshgen::boxTets(6, 6, 6);
  const auto g = part::buildElemGraph(*gen.mesh);
  const auto assign = part::partitionGraph(g, 8, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(8, pcu::Machine::flat(8)));
  // Weight: elements near x=0 are 4x heavier.
  for (PartId p = 0; p < 8; ++p) {
    auto& m = pm->part(p).mesh();
    auto* w = m.tags().create<double>("load");
    for (Ent e : pm->part(p).elements())
      m.tags().setScalar<double>(
          w, e, core::centroid(m, e).x < 0.25 ? 4.0 : 1.0);
  }
  const double count_before = parma::entityBalance(*pm, 3).imbalance;
  const double weighted_before =
      parma::weightedElementBalance(*pm, "load").imbalance;
  ASSERT_LE(count_before, 1.05);     // counts balanced
  ASSERT_GE(weighted_before, 1.35);  // weights are not
  parma::ImproveOptions opts{.tolerance = 0.08, .max_iterations = 60};
  opts.element_weight_tag = "load";
  const auto report = parma::improve(*pm, "Rgn", opts);
  pm->verify();
  const double weighted_after =
      parma::weightedElementBalance(*pm, "load").imbalance;
  EXPECT_LT(weighted_after, weighted_before - 0.15);
  EXPECT_LE(weighted_after, 1.25);
  EXPECT_GT(report.totalMigrated(), 0u);
}

TEST(HeavySplit, NoOpOnBalancedPartition) {
  auto gen = meshgen::boxTets(4, 4, 4);
  const auto assign = part::partition(*gen.mesh, 4, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), assign,
                                         dist::PartMap(4, pcu::Machine::flat(4)));
  const auto report = parma::heavyPartSplit(*pm, {.tolerance = 0.10});
  EXPECT_EQ(report.merges, 0);
  EXPECT_EQ(report.parts_split, 0);
  pm->verify();
}

TEST(HeavySplit, LegacyPathNeverChangesPartCount) {
  // Regression for the injectable split-target option (elastic scale-out):
  // the historical no-target call must still merge-then-split with the
  // part count untouched, whatever the skew.
  auto gen = meshgen::boxTets(6, 6, 6);
  std::vector<PartId> dest(gen.mesh->count(3));
  const auto g = part::buildElemGraph(*gen.mesh);
  const auto base = part::partitionGraph(g, 8, part::Method::RCB);
  for (std::size_t i = 0; i < dest.size(); ++i)
    dest[i] = base[i] <= 2 ? 0 : base[i];
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(8, pcu::Machine::flat(8)));
  const int nparts = pm->parts();
  const auto report = parma::heavyPartSplit(*pm, {.tolerance = 0.05});
  EXPECT_EQ(pm->parts(), nparts)
      << "legacy heavyPartSplit must keep the part count invariant";
  EXPECT_GT(report.parts_split, 0);
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

/// --- golden oracle --------------------------------------------------------

/// ParMA's decisions are part of its contract: for a fixed input, the
/// rounds, iterations, migrated elements, final imbalances and the
/// resulting partition are pinned bit for bit, in serial and threaded
/// delivery alike. Any change to how diffusion plans or migrates must
/// reproduce them exactly.
struct ParmaGolden {
  const char* name;
  int rounds;                    ///< BalanceReport::rounds (0 for improve)
  std::vector<int> iterations;   ///< per-level ImproveReport iterations
  std::size_t migrated;          ///< elements migrated
  std::vector<std::uint64_t> final_bits;  ///< final imbalances, bitwise
  std::uint64_t counts_hash;     ///< per-part local counts, dims 0-3
  std::size_t boundary;          ///< boundaryCopies(pm, 0)
  std::uint64_t fingerprint;
  std::uint64_t digests_hash;    ///< element-digest multiset
};

std::uint64_t mixIn(std::uint64_t h, std::uint64_t v) {
  v *= 0x9e3779b97f4a7c15ull;
  v ^= v >> 32;
  h = (h ^ v) * 0xff51afd7ed558ccdull;
  return h ^ (h >> 29);
}

std::uint64_t countsHash(const dist::PartedMesh& pm) {
  std::uint64_t h = 0;
  for (PartId p = 0; p < pm.parts(); ++p)
    for (int d = 0; d <= 3; ++d) h = mixIn(h, pm.part(p).mesh().count(d));
  return h;
}

std::uint64_t digestsHash(const dist::PartedMesh& pm) {
  std::uint64_t h = 0;
  for (std::uint64_t d : dist::digest::elementDigests(pm)) h = mixIn(h, d);
  return h;
}

ParmaGolden runGolden(const std::string& name, int threads) {
  ParmaGolden got{};
  const bool balance = name.rfind("rgn", 0) == 0;
  const int nparts = name == "rgn16" ? 16 : 8;
  auto gen = meshgen::vessel({.circumferential = 6, .axial = 24});
  if (!balance) {
    common::Rng rng(17);
    meshgen::jiggle(*gen.mesh, 0.2, rng);
  }
  auto pm = imbalancedPartition(gen, nparts, 0.4);
  pm->network().setDeliveryThreads(threads);
  if (balance) {
    const auto report = parma::balance(*pm, "Rgn", {.tolerance = 0.05});
    got.rounds = report.rounds;
    got.migrated = report.elements_migrated;
    got.final_bits = {std::bit_cast<std::uint64_t>(report.final_imbalance)};
  } else {
    const auto report = parma::improve(
        *pm, name == "vtx_rgn" ? "Vtx>Rgn" : "Edge=Face>Rgn",
        {.tolerance = 0.05});
    for (const auto& level : report.levels) {
      got.iterations.push_back(level.iterations);
      got.final_bits.push_back(
          std::bit_cast<std::uint64_t>(level.final_imbalance));
    }
    got.migrated = report.totalMigrated();
  }
  pm->verify();
  got.counts_hash = countsHash(*pm);
  got.boundary = parma::boundaryCopies(*pm, 0);
  got.fingerprint = pm->fingerprint();
  got.digests_hash = digestsHash(*pm);
  return got;
}

std::string describe(const ParmaGolden& g) {
  std::string s = "rounds " + std::to_string(g.rounds) + ", iterations {";
  for (int i : g.iterations) s += std::to_string(i) + ",";
  s += "}, migrated " + std::to_string(g.migrated) + ", final_bits {";
  const auto hex = [](std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  for (auto b : g.final_bits) s += hex(b) + ",";
  s += "}, counts " + hex(g.counts_hash) + ", boundary " +
       std::to_string(g.boundary) + ", fingerprint " + hex(g.fingerprint) +
       ", digests " + hex(g.digests_hash);
  return s;
}

void PrintTo(const ParmaGolden& g, std::ostream* os) { *os << g.name; }

class ParmaGoldenTest
    : public ::testing::TestWithParam<std::tuple<ParmaGolden, int>> {};

TEST_P(ParmaGoldenTest, DecisionsAndPartitionArePinned) {
  const auto& [want, threads] = GetParam();
  const ParmaGolden got = runGolden(want.name, threads);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.migrated, want.migrated);
  EXPECT_EQ(got.final_bits, want.final_bits);
  EXPECT_EQ(got.counts_hash, want.counts_hash);
  EXPECT_EQ(got.boundary, want.boundary);
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.digests_hash, want.digests_hash);
  if (HasFailure()) ADD_FAILURE() << want.name << ": " << describe(got);
}

INSTANTIATE_TEST_SUITE_P(
    Fixed, ParmaGoldenTest,
    ::testing::Combine(
        ::testing::Values(
            ParmaGolden{"rgn8", 1, {}, 261, {0x3ff097b425ed097bull},
                        0xf42acbb6d10128c6ull, 927, 0x1de89a3b909b1befull,
                        0x358e21671bc3b3c3ull},
            ParmaGolden{"rgn16", 1, {}, 183, {0x3ff0bda12f684bdaull},
                        0x450c71bf47250edcull, 1402, 0xfc6b6c006a0c9c94ull,
                        0x358e21671bc3b3c3ull},
            ParmaGolden{"vtx_rgn", 0, {3, 1}, 307,
                        {0x3ff11262918909bcull, 0x3ff0c3f35ba78195ull},
                        0x3c5907a46f4c1b78ull, 904, 0x678021eb2f5cf5e8ull,
                        0x5e3f3081d6badcf7ull},
            ParmaGolden{"edge_face_rgn", 0, {6, 0, 2}, 261,
                        {0x3ff1763149eee65aull, 0x3ff1945fd536786dull,
                         0x3ff09161f9add3c1ull},
                        0xc366f86326021ceaull, 898, 0xb95286b902823787ull,
                        0x5e3f3081d6badcf7ull}),
        ::testing::Values(0, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) > 1 ? "_threaded" : "_serial");
    });

}  // namespace
