#include <gtest/gtest.h>

#include "adapt/quality.hpp"
#include "adapt/refine.hpp"
#include "adapt/sizefield.hpp"
#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/meshio.hpp"
#include "core/verify.hpp"
#include <set>

#include "dist/numbering.hpp"
#include "dist/padapt.hpp"
#include "dist/partedmesh.hpp"
#include "dist/ptnmodel.hpp"
#include "meshgen/boxmesh.hpp"
#include "meshgen/workloads.hpp"
#include "parma/balance.hpp"
#include "parma/metrics.hpp"
#include "part/partition.hpp"

namespace {

using core::Ent;
using dist::PartId;

/// Whole-workflow property tests: interleave every distributed operation
/// in randomized orders and check the full invariant suite after each.

double globalMeasure(dist::PartedMesh& pm) {
  double v = 0.0;
  for (PartId p = 0; p < pm.parts(); ++p)
    for (Ent e : pm.part(p).elements())
      v += core::measure(pm.part(p).mesh(), e);
  return v;
}

struct FuzzCase {
  std::int64_t dim;  // 2 or 3 (64-bit: no padding bytes before seed)
  std::uint64_t seed;
};

class OpFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(OpFuzz, InterleavedOperationsKeepInvariants) {
  const auto [dim, seed] = GetParam();
  common::Rng rng(seed);
  meshgen::Generated gen =
      dim == 3 ? meshgen::boxTets(3, 3, 3) : meshgen::boxTris(8, 8);
  const int nparts = 4;
  const auto assign =
      part::partition(*gen.mesh, nparts, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine(2, 2)));
  const double volume = globalMeasure(*pm);

  for (int step = 0; step < 10; ++step) {
    switch (rng.below(5)) {
      case 0: {  // random migration burst
        dist::MigrationPlan plan(static_cast<std::size_t>(pm->parts()));
        for (PartId p = 0; p < pm->parts(); ++p)
          for (Ent e : pm->part(p).elements())
            if (rng.uniform() < 0.1)
              plan[static_cast<std::size_t>(p)][e] =
                  static_cast<PartId>(rng.below(static_cast<std::uint64_t>(pm->parts())));
        pm->migrate(plan);
        break;
      }
      case 1: {  // ghost + tag sync + unghost
        pm->ghostLayers(1);
        pm->verify();
        pm->syncGhostTags();
        pm->unghost();
        break;
      }
      case 2: {  // a little distributed refinement
        adapt::UniformSize size(dim == 3 ? 0.45 : 0.1);
        dist::refineParted(*pm, size, {.max_passes = 1});
        break;
      }
      case 3: {  // rebalance
        parma::balance(*pm, dim == 3 ? "Rgn" : "Face",
                       {.tolerance = 0.10, .max_rounds = 1});
        break;
      }
      case 4: {  // renumber vertices (exercises shared-tag sync)
        dist::numberEntities(*pm, 0);
        break;
      }
    }
    pm->verify();
    for (PartId p = 0; p < pm->parts(); ++p)
      core::verify(pm->part(p).mesh());
    EXPECT_NEAR(globalMeasure(*pm), volume, 1e-9) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, OpFuzz,
                         ::testing::Values(FuzzCase{3, 11}, FuzzCase{3, 22},
                                           FuzzCase{3, 33}, FuzzCase{2, 44},
                                           FuzzCase{2, 55}),
                         [](const auto& info) {
                           return (info.param.dim == 3 ? "tets_" : "tris_") +
                                  std::to_string(info.param.seed);
                         });

TEST(WorkflowProperty, PtnModelConsistentAfterAdaptAndMigrate) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const auto assign = part::partition(*gen.mesh, 4, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(4, pcu::Machine::flat(4)));
  dist::refineParted(*pm, adapt::UniformSize(0.35), {.max_passes = 4});
  dist::MigrationPlan plan(4);
  int i = 0;
  for (Ent e : pm->part(0).elements())
    if (i++ % 3 == 0) plan[0][e] = 1;
  pm->migrate(plan);
  pm->verify();
  // Partition model: every mesh entity's residence matches its partition
  // entity's residence.
  dist::PtnModel ptn(*pm);
  for (PartId p = 0; p < pm->parts(); ++p) {
    const auto& part = pm->part(p);
    for (int d = 0; d <= 3; ++d)
      for (Ent e : part.mesh().entities(d))
        EXPECT_EQ(ptn.classification(p, e).residence, part.residence(e));
  }
}

TEST(WorkflowProperty, MeshIoRoundTripsAdaptedMesh) {
  // An adapted (no longer structured) mesh survives serialization.
  auto gen = meshgen::boxTets(2, 2, 2);
  adapt::ShockFrontSize size({0.5, 0.5, 0.5}, {1, 1, 0}, 0.2, 0.12, 0.8);
  adapt::refine(*gen.mesh, size, {.max_passes = 5});
  core::verify(*gen.mesh, {.check_volumes = true});
  const std::string path = testing::TempDir() + "/adapted.pumi";
  core::writeMesh(*gen.mesh, path);
  auto back = core::readMesh(path, gen.model.get());
  std::remove(path.c_str());
  core::verify(*back, {.check_volumes = true});
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(back->count(d), gen.mesh->count(d));
  double va = 0.0, vb = 0.0;
  for (Ent e : gen.mesh->entities(3)) va += core::measure(*gen.mesh, e);
  for (Ent e : back->entities(3)) vb += core::measure(*back, e);
  EXPECT_NEAR(va, vb, 1e-12);
}

TEST(WorkflowProperty, SmoothPartedImprovesQualityKeepsBoundary) {
  auto gen = meshgen::boxTets(4, 4, 4);
  common::Rng rng(21);
  meshgen::jiggle(*gen.mesh, 0.25, rng);
  const auto assign = part::partition(*gen.mesh, 4, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(4, pcu::Machine::flat(4)));
  double worst_before = 1.0, mean_before = 0.0;
  int n = 0;
  for (PartId p = 0; p < 4; ++p) {
    const auto q = adapt::meshQuality(pm->part(p).mesh());
    worst_before = std::min(worst_before, q.min);
    mean_before += q.mean;
    ++n;
  }
  const auto stats = dist::smoothParted(*pm, []{ adapt::SmoothOptions o; o.passes = 4; return o; }());
  EXPECT_GT(stats.moved, 0u);
  pm->verify();  // boundary untouched: copies still agree bitwise
  double worst_after = 1.0, mean_after = 0.0;
  for (PartId p = 0; p < 4; ++p) {
    const auto q = adapt::meshQuality(pm->part(p).mesh());
    worst_after = std::min(worst_after, q.min);
    mean_after += q.mean;
    core::verify(pm->part(p).mesh(), {.check_volumes = true});
  }
  EXPECT_GE(worst_after, worst_before - 1e-12);
  EXPECT_GT(mean_after, mean_before);
}

TEST(WorkflowProperty, NumberingStableUnderGhosting) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const auto assign = part::partition(*gen.mesh, 3, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(3, pcu::Machine::flat(3)));
  const std::size_t total = dist::numberEntities(*pm, 0);
  pm->ghostLayers(1);
  // Ghost copies carried the id tag at creation; real ids unchanged.
  std::set<long> owned_ids;
  for (PartId p = 0; p < pm->parts(); ++p) {
    const auto& part = pm->part(p);
    for (Ent v : part.mesh().entities(0)) {
      if (part.isGhost(v) || !part.isOwned(v)) continue;
      owned_ids.insert(dist::globalId(*pm, p, v));
    }
  }
  EXPECT_EQ(owned_ids.size(), total);
  pm->unghost();
  pm->verify();
}

}  // namespace
