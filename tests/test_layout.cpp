/// \file test_layout.cpp
/// \brief The data-layout overhaul must be semantics-free.
///
/// Three gates:
///  1. The CSR adjacency view (adjacentSpan/adjacentInto) answers every
///     (dim -> dim) interrogation identically to the allocating adjacent(),
///     and is invalidated by topology changes but not by coordinate moves.
///  2. RCM reordering actually improves vertex-graph bandwidth.
///  3. Locality reordering on vs off (PUMI_NO_REORDER) leaves the full
///     distributed pipeline — distribute, random migration, ghosting,
///     unghosting, diffusive balancing — bit-identical in both the
///     geometric element-digest multiset and the canonical fingerprint,
///     across the 20-seed chaos matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/order.hpp"
#include "dist/digest.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/improve.hpp"
#include "part/partition.hpp"

namespace {

using core::Ent;
using dist::PartId;

std::vector<Ent> sorted(std::vector<Ent> es) {
  std::sort(es.begin(), es.end());
  return es;
}

// --- gate 1: CSR view vs allocating accessor -----------------------------

void checkAllPairs(const core::Mesh& mesh, int dim) {
  for (int from = 0; from <= dim; ++from) {
    for (int to = 0; to <= dim; ++to) {
      if (from == to) continue;
      core::AdjVec adj;
      for (Ent e : mesh.all(from)) {
        const auto legacy = sorted(mesh.adjacent(e, to));
        const auto span = mesh.adjacentSpan(e, to);
        ASSERT_EQ(legacy, sorted({span.begin(), span.end()}))
            << "span mismatch at (" << from << "->" << to << ")";
        const int n = mesh.adjacentInto(e, to, adj);
        ASSERT_EQ(static_cast<std::size_t>(n), legacy.size());
        ASSERT_EQ(legacy, sorted({adj.begin(), adj.begin() + n}))
            << "into mismatch at (" << from << "->" << to << ")";
      }
    }
  }
}

TEST(CsrAdjacency, MatchesAllocatingAccessorAcrossAllDimPairs3D) {
  auto gen = meshgen::boxTets(4, 4, 4);
  checkAllPairs(*gen.mesh, 3);
}

TEST(CsrAdjacency, MatchesAllocatingAccessorAcrossAllDimPairs2D) {
  auto gen = meshgen::boxTris(6, 6);
  checkAllPairs(*gen.mesh, 2);
}

TEST(CsrAdjacency, GeometryMovesKeepTheViewTopologyChangesRebuildIt) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto& mesh = *gen.mesh;
  const Ent v = mesh.all(0).front();
  const auto before = sorted(mesh.adjacent(v, 3));
  const std::uint64_t version = mesh.topoVersion();

  // Coordinate-only change: version stays, cached rows stay valid (this is
  // what lets smoothing sweeps hold a span across setPoint calls).
  mesh.setPoint(v, mesh.point(v) + common::Vec3{1e-3, 0, 0});
  EXPECT_EQ(mesh.topoVersion(), version);
  const auto span = mesh.adjacentSpan(v, 3);
  EXPECT_EQ(before, sorted({span.begin(), span.end()}));

  // Topology change: version bumps and the lazily rebuilt view agrees with
  // the allocating accessor again.
  mesh.destroy(mesh.all(3).back());
  EXPECT_GT(mesh.topoVersion(), version);
  for (Ent u : mesh.all(0)) {
    const auto legacy = sorted(mesh.adjacent(u, 3));
    const auto s = mesh.adjacentSpan(u, 3);
    ASSERT_EQ(legacy, sorted({s.begin(), s.end()}));
  }
}

// --- gate 2: RCM bandwidth -----------------------------------------------

TEST(Reorder, RcmBeatsShuffledBandwidth) {
  auto gen = meshgen::boxTets(6, 6, 6);
  const auto& mesh = *gen.mesh;
  const auto rcm = core::order::rcmVertices(mesh);
  const auto rcm_ranks = core::order::ranksOf(mesh, rcm);

  auto shuffled = mesh.all(0);
  common::Rng rng(7);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  const auto shuf_ranks = core::order::ranksOf(mesh, shuffled);

  EXPECT_LT(core::order::bandwidth(mesh, rcm_ranks),
            core::order::bandwidth(mesh, shuf_ranks));
}

// --- gate 3: reorder on/off equality over the chaos matrix ---------------

struct LayoutCase {
  std::uint64_t three_d;  // 0: triangles, 1: tetrahedra (no padding bytes)
  std::uint64_t seed;
};

/// One stage checkpoint: the geometric element-digest multiset (content:
/// no element lost, duplicated or mis-partitioned) plus the canonical
/// structural fingerprint (partition + remotes + ghosts, relabeling-proof).
struct Checkpoint {
  std::multiset<std::uint64_t> digests;
  std::uint64_t print = 0;

  bool operator==(const Checkpoint&) const = default;
};

Checkpoint checkpoint(dist::PartedMesh& pm) {
  return {dist::digest::elementDigests(pm), pm.fingerprint()};
}

/// Random migration plan chosen by *content*, not by handle: elements are
/// visited in element-digest order (identical between layouts), so the two
/// runs draw the same rng decisions for the same geometric elements.
dist::MigrationPlan contentPlan(dist::PartedMesh& pm, common::Rng& rng,
                                double prob) {
  dist::MigrationPlan plan(static_cast<std::size_t>(pm.parts()));
  for (PartId p = 0; p < pm.parts(); ++p) {
    const auto& mesh = pm.part(p).mesh();
    std::vector<std::pair<std::uint64_t, Ent>> keyed;
    for (Ent e : pm.part(p).elements())
      keyed.emplace_back(dist::digest::elementDigest(mesh, e), e);
    std::sort(keyed.begin(), keyed.end());
    for (const auto& [key, e] : keyed) {
      (void)key;
      if (rng.uniform() < prob)
        plan[static_cast<std::size_t>(p)][e] =
            static_cast<PartId>(rng.below(static_cast<std::uint64_t>(pm.parts())));
    }
  }
  return plan;
}

/// Full pipeline under one layout; returns a checkpoint per stage.
std::vector<Checkpoint> runScenario(const LayoutCase& c, bool reorder) {
  if (reorder)
    unsetenv("PUMI_NO_REORDER");
  else
    setenv("PUMI_NO_REORDER", "1", 1);

  auto gen = c.three_d ? meshgen::boxTets(4, 4, 4) : meshgen::boxTris(6, 6);
  const int nparts = c.three_d ? 5 : 4;
  const auto assignment =
      part::partition(*gen.mesh, nparts, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assignment,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
  unsetenv("PUMI_NO_REORDER");

  std::vector<Checkpoint> out;
  out.push_back(checkpoint(*pm));  // distribute

  common::Rng rng(c.seed * 0x9e3779b97f4a7c15ull + 1);
  for (int round = 0; round < 4; ++round) {
    pm->migrate(contentPlan(*pm, rng, 0.15));
    out.push_back(checkpoint(*pm));  // migrate
  }

  pm->ghostLayers(1);
  out.push_back(checkpoint(*pm));  // ghost

  pm->unghost();
  out.push_back(checkpoint(*pm));  // unghost

  parma::improve(*pm, c.three_d ? "Rgn" : "Face", {.tolerance = 0.05});
  out.push_back(checkpoint(*pm));  // balance

  pm->verify();  // throws on any broken invariant
  return out;
}

class ReorderEquality : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(ReorderEquality, DigestsAndFingerprintsBitIdenticalOnVsOff) {
  const auto on = runScenario(GetParam(), true);
  const auto off = runScenario(GetParam(), false);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].digests, off[i].digests) << "digest drift at stage " << i;
    EXPECT_EQ(on[i].print, off[i].print) << "fingerprint drift at stage " << i;
  }
}

std::vector<LayoutCase> chaosMatrix() {
  std::vector<LayoutCase> cases;
  for (std::uint64_t s = 0; s < 10; ++s) cases.push_back({1, s});
  for (std::uint64_t s = 0; s < 10; ++s) cases.push_back({0, s});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ChaosMatrix, ReorderEquality, ::testing::ValuesIn(chaosMatrix()),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return std::string(info.param.three_d ? "tets" : "tris") + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
