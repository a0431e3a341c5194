#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/verify.hpp"
#include "dist/partedmesh.hpp"
#include "dist/ptnmodel.hpp"
#include "meshgen/boxmesh.hpp"
#include "meshgen/workloads.hpp"

namespace {

using common::Vec3;
using core::Ent;
using dist::PartId;

/// Stripe elements across parts by iteration order.
std::vector<PartId> stripe(const core::Mesh& serial, int nparts) {
  const std::size_t n = serial.count(serial.dim());
  std::vector<PartId> dest(n);
  for (std::size_t i = 0; i < n; ++i)
    dest[i] = static_cast<PartId>(i * static_cast<std::size_t>(nparts) / n);
  return dest;
}

/// Geometric striping along x (produces contiguous chunks).
std::vector<PartId> stripeByX(const core::Mesh& serial, int nparts) {
  const int dim = serial.dim();
  std::vector<std::pair<double, std::size_t>> order;
  std::size_t i = 0;
  for (Ent e : serial.entities(dim))
    order.emplace_back(core::centroid(serial, e).x, i++);
  std::sort(order.begin(), order.end());
  std::vector<PartId> dest(order.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    dest[order[k].second] =
        static_cast<PartId>(k * static_cast<std::size_t>(nparts) / order.size());
  return dest;
}

/// Four parts by quadrant of the unit square in x-y: every vertex on the
/// line x = y = 0.5 is shared by all four parts.
std::vector<PartId> quadrants(const core::Mesh& serial) {
  std::vector<PartId> dest;
  for (Ent e : serial.entities(serial.dim())) {
    const Vec3 c = core::centroid(serial, e);
    dest.push_back(
        static_cast<PartId>((c.x > 0.5 ? 1 : 0) + (c.y > 0.5 ? 2 : 0)));
  }
  return dest;
}

dist::PartMap flatMap(int nparts) {
  return dist::PartMap(nparts, pcu::Machine::flat(nparts));
}

class DistributeParts : public ::testing::TestWithParam<int> {};

TEST_P(DistributeParts, GlobalCountsMatchSerial) {
  const int nparts = GetParam();
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
      flatMap(nparts));
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d)) << "dim " << d;
  // Every part's local mesh is structurally valid.
  std::size_t total_elems = 0;
  for (PartId p = 0; p < pm->parts(); ++p) {
    core::verify(pm->part(p).mesh(), {.check_volumes = true});
    total_elems += pm->part(p).elementCount();
  }
  EXPECT_EQ(total_elems, gen.mesh->count(3));
}

TEST_P(DistributeParts, SharedEntitiesHaveSymmetricCopies) {
  const int nparts = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
      flatMap(nparts));
  std::size_t shared_seen = 0;
  for (PartId p = 0; p < pm->parts(); ++p) {
    const auto& part = pm->part(p);
    for (int d = 0; d < 3; ++d) {
      for (Ent e : part.mesh().entities(d)) {
        if (const dist::Remote* r = part.remote(e)) {
          ++shared_seen;
          EXPECT_GE(r->owner, 0);
          // Owner is the smallest residence part (MinPartId rule).
          const auto res = part.residence(e);
          EXPECT_EQ(r->owner, res.front());
        }
      }
    }
  }
  if (nparts > 1) {
    EXPECT_GT(shared_seen, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, DistributeParts,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(Distribute, RejectsBadInput) {
  auto gen = meshgen::boxTets(2, 2, 2);
  EXPECT_THROW(dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                            {0, 1, 2},  // wrong length
                                            flatMap(3)),
               std::invalid_argument);
  auto dest = stripe(*gen.mesh, 2);
  dest[0] = 7;  // out of range
  EXPECT_THROW(dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                            flatMap(2)),
               std::invalid_argument);
}

/// --- distribute golden oracle -----------------------------------------------
///
/// fingerprint() names entities by content, so it cannot see a change of
/// handles or of remote-record order; Exchange lays out its items in
/// remotes() order and owners sum in that order. This golden pins both:
/// per part, every topology's pool in slot order (canonical vertices,
/// one-level boundary, classification, coordinate bits), then the remotes()
/// iteration sequence (handle, owner, copies).

struct DistributeGolden {
  const char* name;
  meshgen::Generated (*mesh)();
  std::vector<PartId> (*dest)(const core::Mesh&);
  int nparts;
  std::vector<std::uint64_t> pools;    ///< per-part pool hash
  std::vector<std::uint64_t> remotes;  ///< per-part remotes() hash
};

std::uint64_t mixIn(std::uint64_t h, std::uint64_t v) {
  v *= 0x9e3779b97f4a7c15ull;
  v ^= v >> 32;
  h = (h ^ v) * 0xff51afd7ed558ccdull;
  return h ^ (h >> 29);
}

std::uint64_t poolHash(const core::Mesh& m) {
  std::uint64_t h = 0;
  std::array<Ent, core::kMaxDown> buf{};
  for (int t = 0; t < core::kTopoCount; ++t) {
    const auto topo = static_cast<core::Topo>(t);
    h = mixIn(h, m.slots(topo));
    for (std::uint32_t i = 0; i < m.slots(topo); ++i) {
      const Ent e(topo, i);
      h = mixIn(h, m.alive(e));
      if (!m.alive(e)) continue;
      const int d = core::topoDim(topo);
      if (d == 0) {
        const Vec3 x = m.point(e);
        for (double c : {x.x, x.y, x.z})
          h = mixIn(h, std::bit_cast<std::uint64_t>(c));
      } else {
        for (int k : {0, d - 1}) {
          const int n = m.downward(e, k, buf.data());
          for (int j = 0; j < n; ++j)
            h = mixIn(h, buf[std::size_t(j)].packed());
        }
      }
      const gmi::Entity* cls = m.classification(e);
      h = mixIn(h, cls ? std::uint64_t(cls->dim()) + 1 : 0);
      h = mixIn(h, cls ? std::uint64_t(cls->tag()) + 1 : 0);
    }
  }
  return h;
}

std::uint64_t remotesHash(const dist::Part& p) {
  std::uint64_t h = 0;
  for (const auto& [e, r] : p.remotes()) {
    h = mixIn(h, e.packed());
    h = mixIn(h, static_cast<std::uint64_t>(r.owner));
    for (const dist::Copy& c : r.copies) {
      h = mixIn(h, static_cast<std::uint64_t>(c.part));
      h = mixIn(h, c.ent.packed());
    }
  }
  return h;
}

void PrintTo(const DistributeGolden& g, std::ostream* os) { *os << g.name; }

/// Distribute, then verify() at `width` threads; pools and remotes() are
/// pinned to the same values at every width.
void checkDistributeGolden(const DistributeGolden& want, int width) {
  auto gen = want.mesh();
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         want.dest(*gen.mesh),
                                         flatMap(want.nparts));
  pm->network().setDeliveryThreads(width);
  pm->verify();
  std::vector<std::uint64_t> pools, remotes;
  for (PartId p = 0; p < pm->parts(); ++p) {
    pools.push_back(poolHash(pm->part(p).mesh()));
    remotes.push_back(remotesHash(pm->part(p)));
  }
  EXPECT_EQ(pools, want.pools);
  EXPECT_EQ(remotes, want.remotes);
  if (::testing::Test::HasFailure()) {
    std::string s;
    for (const auto* v : {&pools, &remotes}) {
      s += "{";
      for (std::uint64_t x : *v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%016llxull, ",
                      static_cast<unsigned long long>(x));
        s += buf;
      }
      s += "} ";
    }
    ADD_FAILURE() << want.name << ": " << s;
  }
}

class DistributeGoldenTest
    : public ::testing::TestWithParam<DistributeGolden> {};
class DistributeGoldenThreaded : public DistributeGoldenTest {};

TEST_P(DistributeGoldenTest, HandlesAndRemoteOrderArePinned) {
  checkDistributeGolden(GetParam(), 1);
}

TEST_P(DistributeGoldenThreaded, HandlesAndRemoteOrderArePinned) {
  checkDistributeGolden(GetParam(), 4);
}

std::vector<DistributeGolden> distributeGoldens() {
  return {
    DistributeGolden{
        "tets_quadrants", [] { return meshgen::boxTets(4, 4, 2); },
        quadrants, 4,
        {0x695aa939ca333b56ull, 0x11292ea34ccd1321ull,
         0x4bd8603513be865dull, 0xc30d9ca04b90289cull},
        {0xb4a19819202ec06aull, 0x1d0c03bb670b5eedull,
         0xabb97465478926a7ull, 0xf1f996f34a4b4e5full}},
    DistributeGolden{
        "tets_stripe5", [] { return meshgen::boxTets(4, 4, 4); },
        [](const core::Mesh& m) { return stripe(m, 5); }, 5,
        {0xef406db6a2025bcdull, 0x3ceac35b514631e9ull,
         0x8dd7770f77ced682ull, 0xa1d0db72dff25ed4ull,
         0x7f57dcea4414c602ull},
        {0xa5a090ea1979c7afull, 0x85a341bee0382cb9ull,
         0x41a4391b15f587bcull, 0x6283d15218e16444ull,
         0xc486e19b40c2097bull}},
    DistributeGolden{
        "tris_parts3", [] { return meshgen::boxTris(6, 6); },
        [](const core::Mesh& m) { return stripeByX(m, 3); }, 3,
        {0x53dbee99cde6cfbbull, 0x0250276b133bae6cull,
         0x21aa1dc7b9165e65ull},
        {0x77a9bec004b83dcbull, 0xdaa06ef4272be7edull,
         0xd4bb4133c861c283ull}},
    DistributeGolden{
        "vessel_parts8",
        [] {
          return meshgen::vessel({.circumferential = 6, .axial = 24});
        },
        [](const core::Mesh& m) { return stripeByX(m, 8); }, 8,
        {0x9e1c36c333c997d4ull, 0xe822ada821698a6cull,
         0x95b00686191bee11ull, 0xbae5c9640b6f7cc1ull,
         0x5804f1a4905723c9ull, 0x74eb97f2c6d43163ull,
         0x81316c254441c679ull, 0xdc0eced40c812e58ull},
        {0xa7685e2b88fcccc4ull, 0x07d41e91af08017aull,
         0x24527a54ec0fb1bbull, 0xec9a5205f8ba2d98ull,
         0x33abffe42b2ac483ull, 0xfa23d30b36d277a9ull,
         0x8c2b06dd475f69d8ull, 0xe279c5e110513f73ull}}};
}

INSTANTIATE_TEST_SUITE_P(
    Fixed, DistributeGoldenTest, ::testing::ValuesIn(distributeGoldens()),
    [](const auto& info) { return std::string(info.param.name); });
INSTANTIATE_TEST_SUITE_P(
    Fixed, DistributeGoldenThreaded, ::testing::ValuesIn(distributeGoldens()),
    [](const auto& info) { return std::string(info.param.name); });

/// Serial int, long and multi-component double tags, set on a subset of
/// entities that includes part-boundary vertices, edges and faces, reach
/// every copy; an entity without a value gets none, and a tag set on no
/// entity carries no value on any part.
TEST(Distribute, SerialTagsReachEveryCopy) {
  auto gen = meshgen::boxTets(3, 3, 3);
  core::Mesh& serial = *gen.mesh;
  auto& tags = serial.tags();
  auto* vtag = tags.create<int>("vid");
  auto* etag = tags.create<long>("eid");
  auto* ftag = tags.create<double>("fxyz", 3);
  tags.create<int>("unused");
  // Content name of an entity: its sorted vertex coordinates.
  const auto nameOf = [](const core::Mesh& m, Ent e) {
    std::array<Ent, core::kMaxDown> vs{};
    const int n = m.downward(e, 0, vs.data());
    std::vector<std::array<double, 3>> key;
    for (int i = 0; i < n; ++i) {
      const Vec3 x = m.point(vs[std::size_t(i)]);
      key.push_back({x.x, x.y, x.z});
    }
    std::sort(key.begin(), key.end());
    return key;
  };
  std::map<std::vector<std::array<double, 3>>, Ent> byName;
  for (int d = 0; d <= 2; ++d) {
    int i = 0;
    for (Ent e : serial.entities(d)) {
      byName.emplace(nameOf(serial, e), e);
      if (i++ % 3 == 0) continue;  // every third entity carries no value
      if (d == 0) tags.setScalar<int>(vtag, e, 7 * i);
      if (d == 1) tags.setScalar<long>(etag, e, 1000000000000L + i);
      if (d == 2) tags.set<double>(ftag, e, {0.5 * i, -1.0 * i, 1e-3 * i});
    }
  }
  auto pm = dist::PartedMesh::distribute(serial, gen.model.get(),
                                         stripeByX(serial, 4), flatMap(4));
  const std::array<core::Mesh::Tag, 3> by_dim{vtag, etag, ftag};
  std::array<std::size_t, 3> shared_valued{};
  for (PartId p = 0; p < pm->parts(); ++p) {
    const dist::Part& part = pm->part(p);
    const auto& ptags = part.mesh().tags();
    const core::Mesh::Tag unused = ptags.find("unused");
    EXPECT_TRUE(unused == nullptr || unused->count() == 0) << "part " << p;
    for (int d = 0; d <= 2; ++d) {
      const core::Mesh::Tag want = by_dim[std::size_t(d)];
      const core::Mesh::Tag got = ptags.find(want->name());
      ASSERT_NE(got, nullptr) << want->name() << " on part " << p;
      EXPECT_EQ(got->type(), want->type());
      EXPECT_EQ(got->components(), want->components());
      for (Ent e : part.mesh().entities(d)) {
        const Ent s = byName.at(nameOf(part.mesh(), e));
        for (const core::Mesh::Tag other : by_dim) {
          const core::Mesh::Tag o = ptags.find(other->name());
          EXPECT_FALSE(other != want && o != nullptr && o->has(e));
        }
        ASSERT_EQ(got->has(e), want->has(s)) << "part " << p << " dim " << d;
        if (!want->has(s)) continue;
        if (part.isShared(e)) ++shared_valued[std::size_t(d)];
        const auto a = got->valueBytes(e), b = want->valueBytes(s);
        EXPECT_FALSE(a.empty());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      }
    }
  }
  for (int d = 0; d <= 2; ++d)
    EXPECT_GT(shared_valued[std::size_t(d)], 0u) << "dim " << d;
}

TEST(PaperFigure3, ThreePartMeshOnTwoNodes) {
  // The paper's running example: a 2D mesh on three parts over two nodes.
  auto gen = meshgen::boxTris(4, 4);
  auto& serial = *gen.mesh;
  // Assign left/mid/right thirds of triangles to parts 0/1/2.
  std::vector<PartId> dest;
  for (Ent e : serial.entities(2)) {
    const double x = core::centroid(serial, e).x;
    dest.push_back(x < 1.0 / 3 ? 0 : (x < 2.0 / 3 ? 1 : 2));
  }
  // Two nodes: parts 0,1 on node i; part 2 on node j (2 ranks/node).
  dist::PartMap map(3, pcu::Machine(2, 2));
  auto pm = dist::PartedMesh::distribute(serial, gen.model.get(), dest, map);
  pm->verify();
  EXPECT_EQ(map.nodeOf(0), map.nodeOf(1));
  EXPECT_NE(map.nodeOf(0), map.nodeOf(2));

  dist::PtnModel ptn(*pm);
  // Partition faces: one per part interior.
  EXPECT_EQ(ptn.count(2), 3u);
  // Partition edges: interfaces 0|1 and 1|2 (parts 0 and 2 do not touch).
  EXPECT_EQ(ptn.count(1), 2u);
  EXPECT_NE(ptn.find({0, 1}), nullptr);
  EXPECT_NE(ptn.find({1, 2}), nullptr);
  EXPECT_EQ(ptn.find({0, 2}), nullptr);
  // Partition classification of a shared vertex: residence {0,1} -> the
  // partition edge; owner is part 0.
  const auto* pe01 = ptn.find({0, 1});
  EXPECT_EQ(pe01->dim, 1);
  EXPECT_EQ(pe01->owner, 0);
}

TEST(PtnModel, TripleJunctionIsPartitionVertex) {
  // Quadrant partition of a 2D mesh: the center vertex is shared by >= 3
  // parts and must classify on a dim-0 partition entity (paper Fig. 4).
  auto gen = meshgen::boxTris(4, 4);
  auto& serial = *gen.mesh;
  std::vector<PartId> dest;
  for (Ent e : serial.entities(2)) {
    const Vec3 c = core::centroid(serial, e);
    dest.push_back((c.x < 0.5 ? 0 : 1) + (c.y < 0.5 ? 0 : 2));
  }
  auto pm = dist::PartedMesh::distribute(serial, gen.model.get(), dest,
                                         flatMap(4));
  pm->verify();
  dist::PtnModel ptn(*pm);
  const auto* center = ptn.find({0, 1, 2, 3});
  ASSERT_NE(center, nullptr);
  EXPECT_EQ(center->dim, 0);
  EXPECT_EQ(ptn.count(2), 4u);
  // Four pairwise interfaces: 0|1, 0|2, 1|3, 2|3.
  EXPECT_EQ(ptn.count(1), 4u);
}

TEST(Migrate, MoveOneElement) {
  auto gen = meshgen::boxTets(2, 2, 2);
  const std::size_t serial_counts[4] = {gen.mesh->count(0), gen.mesh->count(1),
                                        gen.mesh->count(2), gen.mesh->count(3)};
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  const std::size_t before0 = pm->part(0).elementCount();
  dist::MigrationPlan plan(2);
  const Ent victim = pm->part(0).elements().front();
  plan[0][victim] = 1;
  pm->migrate(plan);
  pm->verify();
  EXPECT_EQ(pm->part(0).elementCount(), before0 - 1);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), serial_counts[d]) << "dim " << d;
  for (PartId p = 0; p < 2; ++p) core::verify(pm->part(p).mesh());
}

TEST(Migrate, EmptyPlanIsNoOp) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  const std::size_t e0 = pm->part(0).elementCount();
  pm->migrate(dist::MigrationPlan(3));
  pm->verify();
  EXPECT_EQ(pm->part(0).elementCount(), e0);
}

TEST(Migrate, EvacuateWholePart) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  dist::MigrationPlan plan(3);
  for (Ent e : pm->part(1).elements()) plan[1][e] = 2;
  pm->migrate(plan);
  pm->verify();
  EXPECT_EQ(pm->part(1).elementCount(), 0u);
  EXPECT_EQ(pm->part(1).mesh().count(0), 0u);  // closure fully released
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Migrate, RoundTripRestoresCounts) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  const std::size_t e0 = pm->part(0).elementCount();
  const std::size_t e1 = pm->part(1).elementCount();
  // Move a slab of part 0's elements to part 1 and back.
  std::vector<Ent> moved;
  dist::MigrationPlan plan(2);
  for (Ent e : pm->part(0).elements())
    if (core::centroid(pm->part(0).mesh(), e).x > 0.25) plan[0][e] = 1;
  const std::size_t nmoved = plan[0].size();
  ASSERT_GT(nmoved, 0u);
  pm->migrate(plan);
  pm->verify();
  EXPECT_EQ(pm->part(0).elementCount(), e0 - nmoved);
  EXPECT_EQ(pm->part(1).elementCount(), e1 + nmoved);
  // Move everything with x < 0.5 back to part 0.
  dist::MigrationPlan back(2);
  for (Ent e : pm->part(1).elements())
    if (core::centroid(pm->part(1).mesh(), e).x < 0.5) back[1][e] = 0;
  pm->migrate(back);
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Migrate, TagsTravelWithElements) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  auto& m0 = pm->part(0).mesh();
  auto* w = m0.tags().create<double>("weight");
  const Ent victim = pm->part(0).elements().front();
  m0.tags().setScalar<double>(w, victim, 42.5);
  const std::size_t before1 = pm->part(1).elementCount();
  dist::MigrationPlan plan(2);
  plan[0][victim] = 1;
  pm->migrate(plan);
  // Find the tagged element on part 1.
  auto& m1 = pm->part(1).mesh();
  auto* w1 = m1.tags().find("weight");
  ASSERT_NE(w1, nullptr);
  std::size_t tagged = 0;
  for (Ent e : pm->part(1).elements())
    if (w1->has(e)) {
      ++tagged;
      EXPECT_EQ(m1.tags().getScalar<double>(w1, e), 42.5);
    }
  EXPECT_EQ(tagged, 1u);
  EXPECT_EQ(pm->part(1).elementCount(), before1 + 1);
}

TEST(Migrate, RandomChurnPreservesInvariants) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const int nparts = 4;
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
      flatMap(nparts));
  common::Rng rng(2026);
  for (int round = 0; round < 6; ++round) {
    dist::MigrationPlan plan(nparts);
    for (PartId p = 0; p < nparts; ++p) {
      for (Ent e : pm->part(p).elements()) {
        if (rng.uniform() < 0.15)
          plan[p][e] = static_cast<PartId>(rng.below(nparts));
      }
    }
    pm->migrate(plan);
    pm->verify();
    for (int d = 0; d <= 3; ++d)
      EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d))
          << "round " << round << " dim " << d;
  }
  for (PartId p = 0; p < nparts; ++p)
    core::verify(pm->part(p).mesh(), {.check_volumes = true});
}

TEST(Migrate, IntoFreshlyAddedPart) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  const PartId fresh = pm->addPart();
  EXPECT_EQ(fresh, 2);
  dist::MigrationPlan plan(3);
  int i = 0;
  for (Ent e : pm->part(0).elements())
    if (i++ % 2 == 0) plan[0][e] = fresh;
  pm->migrate(plan);
  pm->verify();
  EXPECT_GT(pm->part(fresh).elementCount(), 0u);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Migrate, TwoDimensionalMesh) {
  auto gen = meshgen::boxTris(6, 6);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  pm->verify();
  dist::MigrationPlan plan(3);
  for (Ent e : pm->part(0).elements())
    if (core::centroid(pm->part(0).mesh(), e).y > 0.5) plan[0][e] = 2;
  ASSERT_FALSE(plan[0].empty());
  pm->migrate(plan);
  pm->verify();
  for (int d = 0; d <= 2; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Neighbors, DetectedPerDimension) {
  auto gen = meshgen::boxTets(4, 1, 1);
  // Parts along x: 0 | 1 | 2 | 3; only consecutive parts are face-neighbors.
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 4), flatMap(4));
  pm->verify();
  const auto n1 = pm->part(1).neighborParts(2);
  EXPECT_EQ(n1, (std::vector<PartId>{0, 2}));
  const auto n0 = pm->part(0).neighborParts(0);
  EXPECT_TRUE(std::find(n0.begin(), n0.end(), 1) != n0.end());
  // Part 0 and part 3 share nothing.
  const auto n0v = pm->part(0).neighborParts(0);
  EXPECT_TRUE(std::find(n0v.begin(), n0v.end(), 3) == n0v.end());
}

TEST(Ghost, OneLayerCreatesReadOnlyCopies) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  const std::size_t local_before = pm->part(1).mesh().count(3);
  pm->ghostLayers(1);
  pm->verify();
  EXPECT_GT(pm->part(1).ghostCount(), 0u);
  // Ghosts do not change owned counts.
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
  // elementCount excludes ghosts; raw mesh count includes them.
  EXPECT_EQ(pm->part(1).elementCount(), local_before);
  EXPECT_GT(pm->part(1).mesh().count(3), local_before);
  for (PartId p = 0; p < 3; ++p) core::verify(pm->part(p).mesh());
}

TEST(Ghost, UnghostRestoresLocalCounts) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 4), flatMap(4));
  std::vector<std::size_t> counts;
  for (PartId p = 0; p < 4; ++p)
    for (int d = 0; d <= 3; ++d) counts.push_back(pm->part(p).mesh().count(d));
  pm->ghostLayers(1);
  pm->unghost();
  pm->verify();
  std::size_t i = 0;
  for (PartId p = 0; p < 4; ++p)
    for (int d = 0; d <= 3; ++d)
      EXPECT_EQ(pm->part(p).mesh().count(d), counts[i++])
          << "part " << p << " dim " << d;
}

TEST(Ghost, OversizedVertexCountInPayloadIsAValidationError) {
  // A closure record announcing more vertices than any element has must be
  // rejected before its vertex keys are read, not written past the buffer;
  // under threaded delivery the error must reach the caller, not end the
  // process from a worker thread.
  for (int threads : {0, 4}) {
    auto gen = meshgen::boxTets(3, 3, 3);
    auto pm = dist::PartedMesh::distribute(
        *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, 3), flatMap(3));
    pm->network().setDeliveryThreads(threads);
    pcu::OutBuffer rogue;
    rogue.pack<std::uint32_t>(1);  // one closure entity
    rogue.pack<std::int32_t>(0);   // key: owner part
    rogue.pack<std::uint64_t>(0);  // key: owner handle
    rogue.pack<std::uint8_t>(static_cast<std::uint8_t>(core::Topo::Tet));
    rogue.pack<std::int32_t>(-1);  // unclassified
    rogue.pack<std::int32_t>(-1);
    rogue.pack<std::uint32_t>(9);  // vertex count beyond any element's
    pm->network().send(0, 1, std::move(rogue));
    try {
      pm->ghostLayers(1);
      ADD_FAILURE() << "oversized vertex count accepted, threads " << threads;
    } catch (const pcu::Error& e) {
      EXPECT_EQ(e.code(), pcu::ErrorCode::kValidation) << e.what();
      EXPECT_EQ(e.rank(), 1);
      EXPECT_EQ(e.peer(), 0);
    }
  }
}

TEST(Ghost, MalformedClosureRecordIsAValidationError) {
  // Closure bodies are untrusted: a short record, a vertex key naming no
  // vertex the receiver holds or this operation created, a dead or
  // non-vertex local handle and a bad topology byte must each be rejected
  // naming the channel (rank = receiver, peer = sender), never read past
  // the body, thrown as std::out_of_range or built into an element. A
  // transactional ghostLayers rolls back exactly and then succeeds.
  const auto tet = static_cast<std::uint8_t>(core::Topo::Tet);
  const auto body = [](std::uint8_t topo_byte, dist::GKey vkey) {
    pcu::OutBuffer b;
    b.pack<std::uint32_t>(1);  // one closure entity
    b.pack<std::int32_t>(0);   // key: owner part
    b.pack<std::uint64_t>(core::Ent(core::Topo::Tet, 0).packed());
    b.pack<std::uint8_t>(topo_byte);
    b.pack<std::int32_t>(-1);  // unclassified
    b.pack<std::int32_t>(-1);
    b.pack<std::uint32_t>(4);
    for (int k = 0; k < 4; ++k) {
      b.pack<std::int32_t>(vkey.part);
      b.pack<std::uint64_t>(vkey.ent.packed());
    }
    b.pack<std::uint32_t>(0);  // no tags
    return b;
  };
  pcu::OutBuffer short_record;  // the count promises a record; 4 bytes follow
  short_record.pack<std::uint32_t>(1);
  short_record.pack<std::int32_t>(0);
  const pcu::OutBuffer rogues[] = {
      std::move(short_record),
      // part 0's vertex 0 by owner key: not created by this operation
      body(tet, {0, core::Ent(core::Topo::Vertex, 0)}),
      // receiver-local handles: dead, then not a vertex
      body(tet, {1, core::Ent(core::Topo::Vertex, 1u << 30)}),
      body(tet, {1, core::Ent(core::Topo::Tet, 0)}),
      body(200, {1, core::Ent(core::Topo::Vertex, 0)}),  // bad topology
  };
  for (const pcu::OutBuffer& rogue : rogues)
    for (int threads : {0, 4}) {
      auto gen = meshgen::boxTets(3, 3, 3);
      auto pm = dist::PartedMesh::distribute(
          *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, 3), flatMap(3));
      pm->network().setDeliveryThreads(threads);
      pm->setTransactional(true);
      const std::uint64_t before = pm->fingerprint();
      pm->network().send(0, 1, pcu::OutBuffer(rogue));
      try {
        pm->ghostLayers(1);
        ADD_FAILURE() << "rogue closure body accepted, threads " << threads;
      } catch (const pcu::Error& e) {
        EXPECT_EQ(e.code(), pcu::ErrorCode::kValidation) << e.what();
        EXPECT_EQ(e.rank(), 1) << e.what();
        EXPECT_EQ(e.peer(), 0) << e.what();
      }
      EXPECT_EQ(pm->fingerprint(), before) << "threads " << threads;
      EXPECT_EQ(pm->part(0).ghostCount() + pm->part(2).ghostCount(), 0u);
      pm->ghostLayers(1);
      pm->verify();
      EXPECT_GT(pm->part(1).ghostCount(), 0u);
    }
}

TEST(Migrate, MalformedPackedRecordIsAValidationError) {
  // Migration's packed per-peer bodies are untrusted: a body with a partial
  // trailing record, or one naming a handle the receiver does not have,
  // must be rejected naming the channel (rank = receiver, peer = sender)
  // instead of asserting or inserting a dead entity. Under threaded
  // delivery the error reaches the caller from its worker, and a
  // transactional migration rolls the mesh back exactly.
  pcu::OutBuffer trailing;  // one whole 8-byte record plus 4 stray bytes
  trailing.pack<std::uint64_t>(0);
  trailing.pack<std::uint32_t>(0);
  pcu::OutBuffer dead;  // a vertex handle far past any live slot
  dead.pack<std::uint64_t>(core::Ent(core::Topo::Vertex, 1u << 30).packed());
  for (const pcu::OutBuffer* rogue : {&trailing, &dead})
    for (int threads : {0, 4}) {
      auto gen = meshgen::boxTets(3, 3, 3);
      auto pm = dist::PartedMesh::distribute(
          *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, 3), flatMap(3));
      pm->network().setDeliveryThreads(threads);
      pm->setTransactional(true);
      dist::MigrationPlan plan(3);
      for (Ent e : pm->part(0).elements()) plan[0][e] = 1;
      const std::uint64_t before = pm->fingerprint();
      pm->network().send(0, 1, pcu::OutBuffer(*rogue));
      try {
        pm->migrate(plan);
        ADD_FAILURE() << "rogue body accepted, threads " << threads;
      } catch (const pcu::Error& e) {
        EXPECT_EQ(e.code(), pcu::ErrorCode::kValidation) << e.what();
        EXPECT_EQ(e.rank(), 1) << e.what();
        EXPECT_EQ(e.peer(), 0) << e.what();
      }
      EXPECT_EQ(pm->fingerprint(), before) << "threads " << threads;
      // The rolled-back mesh still migrates cleanly.
      pm->migrate(plan);
      pm->verify();
      EXPECT_EQ(pm->part(0).elementCount(), 0u);
    }
  // A creation record's vertex key names a vertex the receiver holds by the
  // receiver's own handle, or one this migration created there by its owner
  // key; nothing else resolves. A pre-staged body is consumed by the first
  // (A0 notify) decoder, so the rogue creation body is made by the sender
  // itself: its copy list of a shared vertex omits the receiver, so it
  // names that vertex by the owner key of a vertex the receiver already
  // holds and this migration did not create.
  for (int threads : {0, 4}) {
    auto gen = meshgen::boxTets(4, 4, 2);
    auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                           quadrants(*gen.mesh), flatMap(4));
    pm->network().setDeliveryThreads(threads);
    pm->setTransactional(true);
    // A vertex of part `from`, owned elsewhere, with a copy on a third part.
    PartId from = -1, to = -1;
    Ent v;
    dist::Remote intact;
    for (PartId p = 0; p < 4 && to < 0; ++p)
      for (const auto& [e, r] : pm->part(p).remotes()) {
        if (e.topo() != core::Topo::Vertex || r.owner == p) continue;
        for (const dist::Copy& c : r.copies)
          if (c.part != r.owner) to = c.part;
        if (to < 0) continue;
        from = p;
        v = e;
        intact = r;
        break;
      }
    ASSERT_GE(to, 0);
    dist::Remote broken = intact;
    std::erase_if(broken.copies,
                  [&](const dist::Copy& c) { return c.part == to; });
    pm->part(from).setRemote(v, broken);
    dist::MigrationPlan plan(4);
    plan[static_cast<std::size_t>(from)]
        [pm->part(from).mesh().adjacent(v, 3).front()] = to;
    const std::uint64_t before = pm->fingerprint();
    try {
      pm->migrate(plan);
      ADD_FAILURE() << "owner key of a pre-existing copy accepted, threads "
                    << threads;
    } catch (const pcu::Error& e) {
      EXPECT_EQ(e.code(), pcu::ErrorCode::kValidation) << e.what();
      EXPECT_EQ(e.rank(), to) << e.what();
      EXPECT_EQ(e.peer(), from) << e.what();
    }
    EXPECT_EQ(pm->fingerprint(), before) << "threads " << threads;
    // With the copy link restored the same plan migrates cleanly.
    pm->part(from).setRemote(v, intact);
    pm->migrate(plan);
    pm->verify();
  }
}

TEST(Ghost, TwoLayersStrictlyLarger) {
  auto gen = meshgen::boxTets(6, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  pm->ghostLayers(1);
  const std::size_t one = pm->part(0).ghostCount();
  pm->unghost();
  pm->ghostLayers(2);
  pm->verify();
  const std::size_t two = pm->part(0).ghostCount();
  EXPECT_GT(two, one);
  pm->unghost();
  pm->verify();
}

TEST(Ghost, TagsSyncToGhosts) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  // Tag every element on its home part before ghosting.
  for (PartId p = 0; p < 2; ++p) {
    auto& m = pm->part(p).mesh();
    auto* t = m.tags().create<int>("home");
    for (Ent e : pm->part(p).elements()) m.tags().setScalar<int>(t, e, p);
  }
  pm->ghostLayers(1);
  // Ghost copies carried the tag at creation.
  for (PartId p = 0; p < 2; ++p) {
    const auto& part = pm->part(p);
    auto* t = part.mesh().tags().find("home");
    ASSERT_NE(t, nullptr);
    for (Ent e : part.mesh().entities(3)) {
      if (!part.isGhost(e)) continue;
      EXPECT_EQ(part.mesh().tags().getScalar<int>(t, e),
                part.ghostSource(e).part);
    }
  }
  //

  // Owner updates a value; syncGhostTags pushes it to ghosts.
  auto& m0 = pm->part(0).mesh();
  auto* t0 = m0.tags().find("home");
  for (Ent e : pm->part(0).elements()) m0.tags().setScalar<int>(t0, e, 100);
  pm->syncGhostTags();
  const auto& part1 = pm->part(1);
  auto* t1 = part1.mesh().tags().find("home");
  for (Ent e : part1.mesh().entities(3)) {
    if (!part1.isGhost(e)) continue;
    if (part1.ghostSource(e).part == 0) {
      EXPECT_EQ(part1.mesh().tags().getScalar<int>(t1, e), 100);
    }
  }
}

TEST(Ghost, MigrateRefusesWhileGhosted) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  pm->ghostLayers(1);
  dist::MigrationPlan plan(2);
  plan[0][pm->part(0).elements().front()] = 1;
  EXPECT_THROW(pm->migrate(plan), std::logic_error);
  pm->unghost();
  EXPECT_NO_THROW(pm->migrate(plan));
  pm->verify();
}

/// --- ghost golden oracle --------------------------------------------------

/// Ghosting's result is pinned for fixed inputs, in serial and threaded
/// delivery alike: the content fingerprint, per-part ghost counts, per-part
/// local counts, and every ghost's handle and source plus every owner's
/// ghost-copy set, in mesh order (which pins creation order and handles).
struct GhostGolden {
  const char* name;
  int layers;
  int nparts;
  std::uint64_t fingerprint;
  std::vector<std::size_t> ghosts;  ///< per-part ghostCount()
  std::uint64_t counts_hash;        ///< per-part local counts, dims 0-3
  std::uint64_t links_hash;         ///< ghost sources and ghost-copy lists
};

GhostGolden runGhostGolden(const GhostGolden& want, int threads) {
  GhostGolden got{want.name, want.layers, want.nparts, 0, {}, 0, 0};
  auto gen = meshgen::vessel({.circumferential = 6, .axial = 24});
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, want.nparts),
      flatMap(want.nparts));
  pm->network().setDeliveryThreads(threads);
  pm->ghostLayers(want.layers);
  pm->verify();
  got.fingerprint = pm->fingerprint();
  for (PartId p = 0; p < pm->parts(); ++p) {
    const auto& part = pm->part(p);
    got.ghosts.push_back(part.ghostCount());
    for (int d = 0; d <= 3; ++d) {
      got.counts_hash = mixIn(got.counts_hash, part.mesh().count(d));
      for (Ent e : part.mesh().entities(d)) {
        if (part.isGhost(e)) {
          const dist::Copy src = part.ghostSource(e);
          got.links_hash = mixIn(got.links_hash, e.packed());
          got.links_hash = mixIn(got.links_hash,
                                 static_cast<std::uint64_t>(src.part));
          got.links_hash = mixIn(got.links_hash, src.ent.packed());
        } else if (const auto* ghosted = part.ghostCopies(e)) {
          // The recorded hash pins each owner's copies as a sorted set.
          std::vector<dist::Copy> copies = *ghosted;
          std::sort(copies.begin(), copies.end(),
                    [](const dist::Copy& a, const dist::Copy& b) {
                      return a.part != b.part ? a.part < b.part
                                              : a.ent < b.ent;
                    });
          got.links_hash = mixIn(got.links_hash, e.packed());
          for (const dist::Copy& c : copies) {
            got.links_hash =
                mixIn(got.links_hash, static_cast<std::uint64_t>(c.part));
            got.links_hash = mixIn(got.links_hash, c.ent.packed());
          }
        }
      }
    }
  }
  return got;
}

std::string describe(const GhostGolden& g) {
  const auto hex = [](std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  std::string s = "fingerprint " + hex(g.fingerprint) + ", ghosts {";
  for (std::size_t n : g.ghosts) s += std::to_string(n) + ",";
  s += "}, counts " + hex(g.counts_hash) + ", links " + hex(g.links_hash);
  return s;
}

void PrintTo(const GhostGolden& g, std::ostream* os) { *os << g.name; }

class GhostGoldenTest
    : public ::testing::TestWithParam<std::tuple<GhostGolden, int>> {};

TEST_P(GhostGoldenTest, GhostsArePinned) {
  const auto& [want, threads] = GetParam();
  const GhostGolden got = runGhostGolden(want, threads);
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.ghosts, want.ghosts);
  EXPECT_EQ(got.counts_hash, want.counts_hash);
  EXPECT_EQ(got.links_hash, want.links_hash);
  if (HasFailure()) ADD_FAILURE() << want.name << ": " << describe(got);
}

INSTANTIATE_TEST_SUITE_P(
    Fixed, GhostGoldenTest,
    ::testing::Combine(
        ::testing::Values(
            GhostGolden{"layers1_parts4", 1, 4, 0x2a6b383773905474ull,
                        {4916, 9556, 9206, 5076},
                        0x60988760aa0d0d34ull, 0xd1665bdd2fcc7a32ull},
            GhostGolden{"layers2_parts4", 2, 4, 0x5e3125d9b00b7738ull,
                        {7976, 13462, 13670, 7628},
                        0x11784616ab5f33abull, 0x83a70238e1023184ull},
            GhostGolden{"layers1_parts8", 1, 8, 0x7a783289c5bd4e1eull,
                        {5187, 7570, 9339, 9636, 9870, 8728, 7260, 3530},
                        0x49c2c781ace7fc63ull, 0x14f24a807e4c9c66ull},
            GhostGolden{"layers2_parts8", 2, 8, 0x469c0606e3a186c8ull,
                        {7183, 9730, 12357, 13862, 13558, 11694, 9852, 4896},
                        0xa15e73d4df4204d3ull, 0x2d18824a1942ab43ull}),
        ::testing::Values(0, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) > 1 ? "_threaded" : "_serial");
    });

TEST(Network, TwoLevelTrafficAccounting) {
  auto gen = meshgen::boxTets(4, 2, 2);
  // 4 parts on 2 nodes x 2 cores: parts {0,1} on node 0, {2,3} on node 1.
  dist::PartMap map(4, pcu::Machine(2, 2));
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 4), map);
  pm->network().resetStats();
  pm->ghostLayers(1);
  const auto& s = pm->network().stats();
  EXPECT_GT(s.on_node_messages, 0u);
  EXPECT_GT(s.off_node_messages, 0u);
  EXPECT_EQ(s.messages_sent, s.on_node_messages + s.off_node_messages);
  EXPECT_EQ(s.bytes_sent, s.on_node_bytes + s.off_node_bytes);
}

TEST(OwnerRule, LeastLoadedPicksLighterPart) {
  auto gen = meshgen::boxTets(4, 2, 2);
  // Unbalanced distribution: part 0 heavy, part 1 light.
  std::vector<PartId> dest(gen.mesh->count(3), 0);
  for (std::size_t i = dest.size() - 12; i < dest.size(); ++i) dest[i] = 1;
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         flatMap(2), dist::OwnerRule::LeastLoaded);
  // distribute() uses MinPartId; migrations re-choose owners for entities
  // they touch. Move a slab so most of the part boundary is touched.
  dist::MigrationPlan plan(2);
  int i = 0;
  for (Ent e : pm->part(0).elements())
    if (i++ % 2 == 0) plan[0][e] = 1;
  pm->migrate(plan);
  pm->verify();
  // Touched shared entities are now owned by the lighter part (part 1),
  // per LeastLoaded; untouched ones keep their previous owner.
  std::size_t owned_by_1 = 0, shared_total = 0;
  for (int d = 0; d < 3; ++d) {
    for (Ent e : pm->part(1).mesh().entities(d)) {
      if (const dist::Remote* r = pm->part(1).remote(e)) {
        ++shared_total;
        if (r->owner == 1) ++owned_by_1;
      }
    }
  }
  ASSERT_GT(shared_total, 0u);
  EXPECT_GT(owned_by_1, shared_total / 2);
}

/// --- verify() negative oracle ---------------------------------------------
///
/// One case per invariant the public mutators can break. Each case corrupts
/// a freshly distributed, verified mesh and lists every invariant that its
/// corruption necessarily breaks; verify() must throw std::logic_error
/// naming one of them. The first name listed is the one verify() reported
/// when the table was written. The mesh is a quadrant split of a 4x4x2 tet
/// box, so the vertices on the line x = y = 0.5 reside on all four parts.

/// The first live entity of dimension d on `p` with exactly `n` copies.
Ent sharedWith(const dist::Part& p, int d, std::size_t n) {
  for (Ent e : p.mesh().entities(d))
    if (const dist::Remote* r = p.remote(e); r && r->copies.size() == n)
      return e;
  ADD_FAILURE() << "no entity with " << n << " copies on part " << p.id();
  return Ent{};
}

/// Rewrite the remote record of `e` on `p` through the public mutator.
template <class F>
void editRemote(dist::Part& p, Ent e, F&& f) {
  dist::Remote r = *p.remote(e);
  f(r);
  p.setRemote(e, std::move(r));
}

/// The first live vertex of part 0 with exactly one copy, and that copy.
std::pair<Ent, dist::Copy> sharedVertex(dist::PartedMesh& pm) {
  const Ent e = sharedWith(pm.part(0), 0, 1);
  return {e, pm.part(0).remote(e)->copies.front()};
}

/// Point part 0's first singly shared vertex at `ent` on its copy's part.
void retargetCopy(dist::PartedMesh& pm, Ent ent) {
  const Ent e = sharedVertex(pm).first;
  editRemote(pm.part(0), e, [&](dist::Remote& r) { r.copies[0].ent = ent; });
}

struct VerifyCase {
  const char* name;
  void (*corrupt)(dist::PartedMesh&);
  std::vector<std::string> may_report;
};

void PrintTo(const VerifyCase& c, std::ostream* os) { *os << c.name; }

/// Corrupt, then verify() at `width` threads: the reported invariant is
/// the same at every width (the lowest part's first failure).
void checkVerifyDetects(const VerifyCase& c, int width) {
  auto gen = meshgen::boxTets(4, 4, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         quadrants(*gen.mesh), flatMap(4));
  pm->network().setDeliveryThreads(width);
  ASSERT_NO_THROW(pm->verify());
  c.corrupt(*pm);
  try {
    pm->verify();
    FAIL() << c.name << ": verify() passed a corrupted mesh";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    bool named = false;
    for (const std::string& m : c.may_report)
      named = named || what.find(m) != std::string::npos;
    EXPECT_TRUE(named) << c.name << ": " << what;
  }
}

class VerifyDetects : public ::testing::TestWithParam<VerifyCase> {};
class VerifyDetectsThreaded : public VerifyDetects {};

TEST_P(VerifyDetects, ThrowsNamingTheInvariant) {
  checkVerifyDetects(GetParam(), 1);
}

TEST_P(VerifyDetectsThreaded, ThrowsNamingTheInvariant) {
  checkVerifyDetects(GetParam(), 4);
}

std::vector<VerifyCase> verifyCases() {
  return {
    VerifyCase{"empty_copy_list",
               [](dist::PartedMesh& pm) {
                 editRemote(pm.part(0), sharedVertex(pm).first,
                            [](dist::Remote& r) { r.copies.clear(); });
               },
               {"shared entity with empty copy list",
                "copy symmetry broken"}},
    VerifyCase{"unsorted_copy_list",
               [](dist::PartedMesh& pm) {
                 auto& p = pm.part(0);
                 editRemote(p, sharedWith(p, 0, 3), [](dist::Remote& r) {
                   std::reverse(r.copies.begin(), r.copies.end());
                 });
               },
               {"copy list not sorted/unique"}},
    VerifyCase{"self_in_copy_list",
               [](dist::PartedMesh& pm) {
                 const Ent e = sharedVertex(pm).first;
                 editRemote(pm.part(0), e, [&](dist::Remote& r) {
                   r.copies.insert(r.copies.begin(), dist::Copy{0, e});
                 });
               },
               {"copy list contains self",
                "residence disagreement across copies"}},
    VerifyCase{"dead_copy",
               [](dist::PartedMesh& pm) {
                 auto& q = pm.part(sharedVertex(pm).second.part);
                 const Ent dead = q.mesh().createVertex({9, 9, 9});
                 q.mesh().destroy(dead);
                 retargetCopy(pm, dead);
               },
               {"dead remote copy", "copy symmetry broken"}},
    VerifyCase{"topology_mismatch",
               [](dist::PartedMesh& pm) {
                 auto& q = pm.part(sharedVertex(pm).second.part);
                 retargetCopy(pm, *q.mesh().entities(1).begin());
               },
               {"remote copy topology mismatch", "copy symmetry broken"}},
    VerifyCase{"copy_not_shared",
               [](dist::PartedMesh& pm) {
                 auto& q = pm.part(sharedVertex(pm).second.part);
                 for (Ent v : q.mesh().entities(0)) {
                   if (q.isShared(v)) continue;
                   retargetCopy(pm, v);
                   return;
                 }
                 ADD_FAILURE() << "no interior vertex on part " << q.id();
               },
               {"remote copy not shared", "copy symmetry broken"}},
    VerifyCase{"owner_disagreement",
               [](dist::PartedMesh& pm) {
                 const auto [e, c] = sharedVertex(pm);
                 editRemote(pm.part(0), e,
                            [&](dist::Remote& r) { r.owner = c.part; });
               },
               {"owner disagreement across copies"}},
    VerifyCase{"owner_not_in_residence",
               [](dist::PartedMesh& pm) {
                 const auto [e, c] = sharedVertex(pm);
                 const PartId outside = c.part == 3 ? 2 : 3;
                 editRemote(pm.part(0), e,
                            [&](dist::Remote& r) { r.owner = outside; });
               },
               {"owner not in residence set",
                "owner disagreement across copies"}},
    VerifyCase{"symmetry_broken",
               [](dist::PartedMesh& pm) {
                 // Two vertices shared by parts 0 and q only; q's copy
                 // of the first points back at the second.
                 const auto& p = pm.part(0);
                 const auto [e1, c1] = sharedVertex(pm);
                 for (Ent e2 : p.mesh().entities(0)) {
                   const dist::Remote* r = p.remote(e2);
                   if (e2 == e1 || r == nullptr || r->copies.size() != 1 ||
                       r->copies[0].part != c1.part)
                     continue;
                   editRemote(pm.part(c1.part), c1.ent,
                              [&](dist::Remote& rq) {
                                rq.copies[0].ent = e2;
                              });
                   return;
                 }
                 ADD_FAILURE() << "no second vertex shared with part "
                               << c1.part;
               },
               {"copy symmetry broken", "vertex coordinate disagreement"}},
    VerifyCase{"residence_disagreement",
               [](dist::PartedMesh& pm) {
                 // A vertex on all four parts: one copy forgets another.
                 const Ent e = sharedWith(pm.part(0), 0, 3);
                 const auto copies = pm.part(0).remote(e)->copies;
                 editRemote(pm.part(copies[0].part), copies[0].ent,
                            [&](dist::Remote& r) {
                              std::erase_if(r.copies, [&](const dist::Copy& x) {
                                return x.part == copies[1].part;
                              });
                            });
               },
               {"residence disagreement across copies",
                "copy symmetry broken"}},
    VerifyCase{"coordinate_disagreement",
               [](dist::PartedMesh& pm) {
                 const dist::Copy c = sharedVertex(pm).second;
                 auto& q = pm.part(c.part).mesh();
                 q.setPoint(c.ent, q.point(c.ent) + Vec3{1e-3, 0, 0});
               },
               {"vertex coordinate disagreement"}},
    VerifyCase{"classification_disagreement",
               [](dist::PartedMesh& pm) {
                 const dist::Copy c = sharedVertex(pm).second;
                 auto& q = pm.part(c.part).mesh();
                 ASSERT_NE(q.classification(c.ent), nullptr);
                 q.classify(c.ent, nullptr);
               },
               {"classification disagreement"}},
    VerifyCase{"shared_element",
               [](dist::PartedMesh& pm) {
                 const Ent a = *pm.part(0).mesh().entities(3).begin();
                 const Ent b = *pm.part(1).mesh().entities(3).begin();
                 pm.part(0).setRemote(a, dist::Remote{{{1, b}}, 0});
                 pm.part(1).setRemote(b, dist::Remote{{{0, a}}, 0});
               },
               {"element is shared"}},
    VerifyCase{"orphan_vertex",
               [](dist::PartedMesh& pm) {
                 pm.part(0).mesh().createVertex({2, 2, 2});
               },
               {"entity resides on part without adjacent element"}},
    VerifyCase{"orphan_after_destroy",
               [](dist::PartedMesh& pm) {
                 // Destroying an element with a shared face leaves that
                 // face on part 0 with no adjacent element there.
                 auto& p = pm.part(0);
                 for (Ent el : p.mesh().entities(3)) {
                   std::array<Ent, core::kMaxDown> faces;
                   const int n = p.mesh().downward(el, 2, faces.data());
                   for (int i = 0; i < n; ++i) {
                     if (!p.isShared(faces[i])) continue;
                     p.mesh().destroy(el);
                     return;
                   }
                 }
                 ADD_FAILURE() << "no element with a shared face";
               },
               {"entity resides on part without adjacent element"}},
    VerifyCase{"copy_part_out_of_range",
               [](dist::PartedMesh& pm) {
                 editRemote(pm.part(0), sharedVertex(pm).first,
                            [](dist::Remote& r) { r.copies[0].part = 99; });
               },
               {"copy names invalid part"}}};
}

INSTANTIATE_TEST_SUITE_P(
    Invariants, VerifyDetects, ::testing::ValuesIn(verifyCases()),
    [](const auto& info) { return std::string(info.param.name); });
INSTANTIATE_TEST_SUITE_P(
    Invariants, VerifyDetectsThreaded, ::testing::ValuesIn(verifyCases()),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
