/// \file test_migrate_property.cpp
/// \brief Property test for migration: many rounds of random plans must
/// preserve the global entity counts per dimension, unique ownership of
/// every shared entity, remote-copy symmetry, and the total mesh measure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/verify.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "part/partition.hpp"

namespace {

using core::Ent;
using dist::PartId;

double globalMeasure(dist::PartedMesh& pm) {
  double v = 0.0;
  for (PartId p = 0; p < pm.parts(); ++p)
    for (Ent e : pm.part(p).elements())
      v += core::measure(pm.part(p).mesh(), e);
  return v;
}

/// Explicit re-statement of the paper's part-boundary invariants, checked
/// independently of PartedMesh::verify():
///  - every shared entity names exactly one owner, agreed by all copies;
///  - if part p lists a copy (q, eq), then part q lists (p, ep) back, with
///    the same owner.
void checkSharedInvariants(dist::PartedMesh& pm) {
  for (PartId p = 0; p < pm.parts(); ++p) {
    const auto& part = pm.part(p);
    for (const auto& [e, r] : part.remotes()) {
      // Owner is one of the holders.
      bool owner_is_holder = r.owner == p;
      for (const dist::Copy& c : r.copies)
        owner_is_holder = owner_is_holder || c.part == r.owner;
      ASSERT_TRUE(owner_is_holder)
          << "part " << p << ": owner " << r.owner << " holds no copy";
      for (const dist::Copy& c : r.copies) {
        ASSERT_NE(c.part, p) << "self copy on part " << p;
        const dist::Remote* back = pm.part(c.part).remote(c.ent);
        ASSERT_NE(back, nullptr)
            << "part " << c.part << " missing back-reference to part " << p;
        ASSERT_EQ(back->owner, r.owner) << "owner disagreement between parts "
                                        << p << " and " << c.part;
        const bool symmetric = std::any_of(
            back->copies.begin(), back->copies.end(),
            [&](const dist::Copy& bc) { return bc.part == p && bc.ent == e; });
        ASSERT_TRUE(symmetric) << "copy asymmetry between parts " << p
                               << " and " << c.part;
      }
    }
  }
}

struct PropertyCase {
  std::uint64_t three_d;  // 0: triangles, 1: tetrahedra (no padding bytes)
  std::uint64_t seed;
};

class MigrateProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MigrateProperty, RandomRoundsPreserveAllInvariants) {
  const auto [three_d, seed] = GetParam();
  common::Rng rng(seed);
  auto gen = three_d ? meshgen::boxTets(4, 4, 4) : meshgen::boxTris(6, 6);
  const int dim = gen.mesh->dim();
  const int nparts = three_d ? 5 : 4;
  const auto assign = part::partition(*gen.mesh, nparts, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));

  std::vector<std::size_t> counts(static_cast<std::size_t>(dim) + 1);
  for (int d = 0; d <= dim; ++d)
    counts[static_cast<std::size_t>(d)] = pm->globalCount(d);
  const double volume = globalMeasure(*pm);

  const int rounds = 20;
  for (int round = 0; round < rounds; ++round) {
    // Each element moves with probability 0.15 to a uniformly random part.
    dist::MigrationPlan plan(static_cast<std::size_t>(nparts));
    std::size_t moved = 0;
    for (PartId p = 0; p < nparts; ++p) {
      for (Ent e : pm->part(p).elements()) {
        if (rng.uniform() >= 0.15) continue;
        const auto dest =
            static_cast<PartId>(rng.below(static_cast<std::uint64_t>(nparts)));
        if (dest == p) continue;
        plan[static_cast<std::size_t>(p)][e] = dest;
        ++moved;
      }
    }
    pm->migrate(plan);

    pm->verify();
    checkSharedInvariants(*pm);
    for (int d = 0; d <= dim; ++d)
      EXPECT_EQ(pm->globalCount(d), counts[static_cast<std::size_t>(d)])
          << "dim " << d << " after round " << round << " (moved " << moved
          << ")";
    EXPECT_NEAR(globalMeasure(*pm), volume, 1e-9) << "round " << round;
    for (PartId p = 0; p < nparts; ++p)
      core::verify(pm->part(p).mesh(), {.check_volumes = true});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MigrateProperty,
    ::testing::Values(PropertyCase{1, 11}, PropertyCase{1, 5150},
                      PropertyCase{0, 23}, PropertyCase{0, 77}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return std::string(info.param.three_d ? "tets" : "tris") + "_seed" +
             std::to_string(info.param.seed);
    });

/// Degenerate plans: empty plan and everything-to-one-part both preserve
/// the invariants (the paper's migration must tolerate any valid plan).
TEST(MigrateProperty, EmptyAndFunnelPlans) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const auto assign = part::partition(*gen.mesh, 4, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(4, pcu::Machine::flat(4)));
  const double volume = globalMeasure(*pm);

  pm->migrate(dist::MigrationPlan(4));
  pm->verify();
  checkSharedInvariants(*pm);

  dist::MigrationPlan funnel(4);
  for (PartId p = 1; p < 4; ++p)
    for (Ent e : pm->part(p).elements())
      funnel[static_cast<std::size_t>(p)][e] = 0;
  pm->migrate(funnel);
  pm->verify();
  checkSharedInvariants(*pm);
  EXPECT_EQ(pm->part(0).elements().size(), gen.mesh->count(3));
  EXPECT_NEAR(globalMeasure(*pm), volume, 1e-9);
}

}  // namespace
