#include <gtest/gtest.h>

#include <array>
#include <set>

#include "core/measure.hpp"
#include "core/mesh.hpp"
#include "core/tagio.hpp"
#include "core/topo.hpp"
#include "core/verify.hpp"

namespace {

using core::Ent;
using core::Mesh;
using core::Topo;
using common::Vec3;

/// Reference element coordinates for each 3D type.
std::vector<Vec3> referenceCoords(Topo t) {
  switch (t) {
    case Topo::Tet:
      return {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    case Topo::Hex:
      return {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
              {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};
    case Topo::Prism:
      return {{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
              {0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
    case Topo::Pyramid:
      return {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0.5, 0.5, 1}};
    default:
      return {};
  }
}

TEST(Topo, TableShapes) {
  EXPECT_EQ(core::topoDim(Topo::Vertex), 0);
  EXPECT_EQ(core::topoDim(Topo::Edge), 1);
  EXPECT_EQ(core::topoDim(Topo::Tri), 2);
  EXPECT_EQ(core::topoDim(Topo::Hex), 3);
  EXPECT_EQ(core::topoVertexCount(Topo::Tet), 4);
  EXPECT_EQ(core::topoVertexCount(Topo::Hex), 8);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Tet, 1), 6);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Tet, 2), 4);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Hex, 1), 12);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Prism, 2), 5);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Pyramid, 2), 5);
  EXPECT_STREQ(core::topoName(Topo::Prism), "prism");
}

TEST(Topo, EveryBoundaryVertexIndexInRange) {
  for (Topo t : {Topo::Tri, Topo::Quad, Topo::Tet, Topo::Hex, Topo::Prism,
                 Topo::Pyramid}) {
    const int dim = core::topoDim(t);
    const int nv = core::topoVertexCount(t);
    for (int d = 0; d < dim; ++d) {
      for (int i = 0; i < core::topoBoundaryCount(t, d); ++i) {
        const auto idxs = core::topoBoundaryVerts(t, d, i);
        EXPECT_EQ(static_cast<int>(idxs.size()),
                  core::topoVertexCount(core::topoBoundaryTopo(t, d, i)));
        for (int idx : idxs) {
          EXPECT_GE(idx, 0);
          EXPECT_LT(idx, nv);
        }
      }
    }
  }
}

TEST(Topo, EdgesOfFacesAreFaceBoundary) {
  // Property: every region's face template's edges appear in the region's
  // edge template (closure consistency).
  for (Topo t : {Topo::Tet, Topo::Hex, Topo::Prism, Topo::Pyramid}) {
    std::set<std::set<int>> region_edges;
    for (int i = 0; i < core::topoBoundaryCount(t, 1); ++i) {
      const auto e = core::topoBoundaryVerts(t, 1, i);
      region_edges.insert({e[0], e[1]});
    }
    for (int f = 0; f < core::topoBoundaryCount(t, 2); ++f) {
      const Topo ft = core::topoBoundaryTopo(t, 2, f);
      const auto fverts = core::topoBoundaryVerts(t, 2, f);
      for (int fe = 0; fe < core::topoBoundaryCount(ft, 1); ++fe) {
        const auto fev = core::topoBoundaryVerts(ft, 1, fe);
        const std::set<int> edge{fverts[fev[0]], fverts[fev[1]]};
        EXPECT_TRUE(region_edges.count(edge))
            << "face edge not an element edge for " << core::topoName(t);
      }
    }
  }
}

class SingleElement : public ::testing::TestWithParam<Topo> {};

TEST_P(SingleElement, BuildCreatesFullClosure) {
  const Topo t = GetParam();
  Mesh m;
  std::vector<Ent> vs;
  for (const Vec3& p : referenceCoords(t)) vs.push_back(m.createVertex(p));
  const Ent e = m.buildElement(t, vs);
  ASSERT_TRUE(m.alive(e));
  EXPECT_EQ(m.count(0), static_cast<std::size_t>(core::topoVertexCount(t)));
  EXPECT_EQ(m.count(1), static_cast<std::size_t>(core::topoBoundaryCount(t, 1)));
  EXPECT_EQ(m.count(2), static_cast<std::size_t>(core::topoBoundaryCount(t, 2)));
  EXPECT_EQ(m.count(3), 1u);
  EXPECT_NO_THROW(core::verify(m, {.check_volumes = true}));
}

TEST_P(SingleElement, DownwardCanonicalOrder) {
  const Topo t = GetParam();
  Mesh m;
  std::vector<Ent> vs;
  for (const Vec3& p : referenceCoords(t)) vs.push_back(m.createVertex(p));
  const Ent e = m.buildElement(t, vs);
  std::array<Ent, core::kMaxDown> buf{};
  // Vertices come back in canonical order.
  const int nv = m.downward(e, 0, buf.data());
  ASSERT_EQ(nv, core::topoVertexCount(t));
  for (int i = 0; i < nv; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i)], vs[static_cast<std::size_t>(i)]);
  // Edges match templates.
  const int ne = m.downward(e, 1, buf.data());
  ASSERT_EQ(ne, core::topoBoundaryCount(t, 1));
  for (int i = 0; i < ne; ++i) {
    const auto idxs = core::topoBoundaryVerts(t, 1, i);
    const Ent expect = m.findEntity(
        Topo::Edge, std::array<Ent, 2>{vs[static_cast<std::size_t>(idxs[0])],
                                       vs[static_cast<std::size_t>(idxs[1])]});
    EXPECT_EQ(buf[static_cast<std::size_t>(i)], expect);
  }
}

TEST_P(SingleElement, BuildIsIdempotent) {
  const Topo t = GetParam();
  Mesh m;
  std::vector<Ent> vs;
  for (const Vec3& p : referenceCoords(t)) vs.push_back(m.createVertex(p));
  const Ent a = m.buildElement(t, vs);
  const Ent b = m.buildElement(t, vs);
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.count(3), 1u);
}

TEST_P(SingleElement, PositiveMeasure) {
  const Topo t = GetParam();
  Mesh m;
  std::vector<Ent> vs;
  for (const Vec3& p : referenceCoords(t)) vs.push_back(m.createVertex(p));
  const Ent e = m.buildElement(t, vs);
  EXPECT_GT(core::measure(m, e), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllRegions, SingleElement,
                         ::testing::Values(Topo::Tet, Topo::Hex, Topo::Prism,
                                           Topo::Pyramid),
                         [](const auto& info) {
                           return core::topoName(info.param);
                         });

/// Every pool in slot order: liveness, canonical vertices, one-level
/// boundary and up list of each slot.
std::vector<Ent> poolDump(const Mesh& m) {
  std::vector<Ent> out;
  std::array<Ent, core::kMaxDown> buf{};
  for (int t = 0; t < core::kTopoCount; ++t) {
    for (std::uint32_t i = 0; i < m.slots(Topo(t)); ++i) {
      const Ent e(Topo(t), i);
      out.push_back(m.alive(e) ? e : Ent{});
      if (!m.alive(e)) continue;
      const int d = core::topoDim(e.topo());
      for (int k : {0, d == 0 ? 0 : d - 1}) {
        const int n = m.downward(e, k, buf.data());
        out.insert(out.end(), buf.begin(), buf.begin() + n);
      }
      out.push_back(Ent{});
      out.insert(out.end(), m.up(e).begin(), m.up(e).end());
    }
  }
  return out;
}

TEST(Mesh, CreateEntityMatchesBuildElement) {
  for (Topo t : {Topo::Tet, Topo::Hex}) {
    Mesh built, created;
    std::vector<Ent> vs;
    for (const Vec3& p : referenceCoords(t)) {
      vs.push_back(built.createVertex(p));
      created.createVertex(p);
    }
    const std::uint64_t v0 = built.topoVersion();
    const Ent e = built.buildElement(t, vs);
    const std::uint64_t bumps = built.topoVersion() - v0;
    // Rebuild dimension-ascending from `built`'s stored boundaries, each
    // pool in slot order, so every handle lands on the same slot.
    const std::uint64_t c0 = created.topoVersion();
    std::array<Ent, core::kMaxDown> vbuf{}, dbuf{};
    for (int d = 1; d <= 3; ++d) {
      for (Ent x : built.entities(d)) {
        const int nv = built.downward(x, 0, vbuf.data());
        const int nb = built.downward(x, d - 1, dbuf.data());
        EXPECT_EQ(created.createEntity(x.topo(), {vbuf.data(), std::size_t(nv)},
                                       {dbuf.data(), std::size_t(nb)}),
                  x);
      }
    }
    EXPECT_EQ(created.topoVersion() - c0, bumps) << core::topoName(t);
    EXPECT_EQ(bumps, std::uint64_t(core::topoBoundaryCount(t, 1) +
                                   core::topoBoundaryCount(t, 2) + 1));
    EXPECT_EQ(poolDump(created), poolDump(built)) << core::topoName(t);
    EXPECT_EQ(created.findEntity(t, vs), e);
  }
}

TEST(Mesh, TwoTetsShareAFace) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  const Ent v3 = m.createVertex({0, 0, 1});
  const Ent v4 = m.createVertex({1, 1, 1});
  const Ent t0 = m.buildElement(Topo::Tet, std::array{v0, v1, v2, v3});
  const Ent t1 = m.buildElement(Topo::Tet, std::array{v1, v2, v3, v4});
  EXPECT_EQ(m.count(3), 2u);
  // Faces: 4 + 4 - 1 shared.
  EXPECT_EQ(m.count(2), 7u);
  // Edges: 6 + 6 - 3 shared.
  EXPECT_EQ(m.count(1), 9u);
  const Ent shared = m.findEntity(Topo::Tri, std::array{v1, v2, v3});
  ASSERT_TRUE(shared);
  EXPECT_EQ(m.up(shared).size(), 2u);
  EXPECT_TRUE(m.up(shared).contains(t0));
  EXPECT_TRUE(m.up(shared).contains(t1));
  core::verify(m);
}

TEST(Mesh, AdjacentUpwardTraversal) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  const Ent v3 = m.createVertex({0, 0, 1});
  const Ent v4 = m.createVertex({1, 1, 1});
  m.buildElement(Topo::Tet, std::array{v0, v1, v2, v3});
  m.buildElement(Topo::Tet, std::array{v1, v2, v3, v4});
  // v1 touches both regions.
  EXPECT_EQ(m.adjacent(v1, 3).size(), 2u);
  // v0 touches one.
  EXPECT_EQ(m.adjacent(v0, 3).size(), 1u);
  // Vertex to itself.
  EXPECT_EQ(m.adjacent(v0, 0), std::vector<Ent>{v0});
  // Edge (v1,v2) bounds both tets.
  const Ent e12 = m.findEntity(Topo::Edge, std::array{v1, v2});
  ASSERT_TRUE(e12);
  EXPECT_EQ(m.adjacent(e12, 3).size(), 2u);
  // Region downward to vertices.
  const Ent t0 = m.findEntity(Topo::Tet, std::array{v0, v1, v2, v3});
  EXPECT_EQ(m.adjacent(t0, 0).size(), 4u);
}

TEST(Mesh, FindEntityNegative) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  m.buildElement(Topo::Tri, std::array{v0, v1, v2});
  const Ent v3 = m.createVertex({5, 5, 5});
  EXPECT_FALSE(m.findEntity(Topo::Edge, std::array{v0, v3}));
  EXPECT_FALSE(m.findEntity(Topo::Tri, std::array{v0, v1, v3}));
  EXPECT_TRUE(m.findEntity(Topo::Tri, std::array{v2, v0, v1}));  // any order
}

TEST(Mesh, DestroyElementThenOrphans) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  const Ent v3 = m.createVertex({0, 0, 1});
  const Ent tet = m.buildElement(Topo::Tet, std::array{v0, v1, v2, v3});
  // Cannot destroy a face still bounding the tet.
  const Ent f = m.findEntity(Topo::Tri, std::array{v0, v1, v2});
  EXPECT_THROW(m.destroy(f), std::logic_error);
  m.destroy(tet);
  EXPECT_EQ(m.count(3), 0u);
  // Now faces are free.
  for (Ent face : m.all(2)) m.destroy(face);
  for (Ent edge : m.all(1)) m.destroy(edge);
  for (Ent v : m.all(0)) m.destroy(v);
  EXPECT_EQ(m.count(0), 0u);
  EXPECT_EQ(m.dim(), -1);
  core::verify(m);
}

TEST(Mesh, SlotReuseAfterDestroy) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  m.destroy(v0);
  const Ent v1 = m.createVertex({1, 1, 1});
  EXPECT_EQ(v1.index(), v0.index());  // free list reuses the slot
  EXPECT_EQ(m.point(v1), Vec3(1, 1, 1));
  EXPECT_EQ(m.count(0), 1u);
}

TEST(Mesh, IterationSkipsDead) {
  Mesh m;
  std::vector<Ent> vs;
  for (int i = 0; i < 10; ++i)
    vs.push_back(m.createVertex({static_cast<double>(i), 0, 0}));
  m.destroy(vs[3]);
  m.destroy(vs[7]);
  std::size_t n = 0;
  for (Ent v : m.entities(0)) {
    EXPECT_TRUE(m.alive(v));
    ++n;
  }
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(m.all(0).size(), 8u);
}

TEST(Mesh, MixedTopologyDimension) {
  // A tet and a hex coexisting; iteration over dim 3 sees both.
  Mesh m;
  std::vector<Ent> tv, hv;
  for (const Vec3& p : referenceCoords(Topo::Tet))
    tv.push_back(m.createVertex(p + Vec3{10, 0, 0}));
  for (const Vec3& p : referenceCoords(Topo::Hex))
    hv.push_back(m.createVertex(p));
  m.buildElement(Topo::Tet, tv);
  m.buildElement(Topo::Hex, hv);
  EXPECT_EQ(m.count(3), 2u);
  EXPECT_EQ(m.countTopo(Topo::Tet), 1u);
  EXPECT_EQ(m.countTopo(Topo::Hex), 1u);
  std::size_t seen = 0;
  for ([[maybe_unused]] Ent e : m.entities(3)) ++seen;
  EXPECT_EQ(seen, 2u);
  core::verify(m);
}

TEST(Mesh, PointsAndSetPoint) {
  Mesh m;
  const Ent v = m.createVertex({1, 2, 3});
  EXPECT_EQ(m.point(v), Vec3(1, 2, 3));
  m.setPoint(v, {4, 5, 6});
  EXPECT_EQ(m.point(v), Vec3(4, 5, 6));
}

TEST(Mesh, TagsOnEntities) {
  Mesh m;
  const Ent v = m.createVertex({0, 0, 0});
  auto* weight = m.tags().create<double>("weight");
  m.tags().setScalar<double>(weight, v, 2.5);
  EXPECT_EQ(m.tags().getScalar<double>(weight, v), 2.5);
  // Destroy removes tag values.
  m.destroy(v);
  const Ent v2 = m.createVertex({1, 1, 1});
  EXPECT_EQ(v2.index(), v.index());
  EXPECT_FALSE(weight->has(v2));
}

TEST(Mesh, EntitySets) {
  Mesh m;
  const Ent a = m.createVertex({0, 0, 0});
  const Ent b = m.createVertex({1, 0, 0});
  auto& s = m.createSet("boundary_layer");
  s.add(a);
  s.add(b);
  EXPECT_EQ(m.findSet("boundary_layer")->size(), 2u);
  EXPECT_EQ(m.findSet("nope"), nullptr);
  EXPECT_THROW(m.createSet("boundary_layer"), std::invalid_argument);
  m.destroySet("boundary_layer");
  EXPECT_EQ(m.findSet("boundary_layer"), nullptr);
}

TEST(Mesh, EntHandleBasics) {
  const Ent null;
  EXPECT_TRUE(null.null());
  EXPECT_FALSE(null);
  const Ent e(Topo::Tet, 42);
  EXPECT_TRUE(e);
  EXPECT_EQ(e.topo(), Topo::Tet);
  EXPECT_EQ(e.index(), 42u);
  EXPECT_EQ(Ent::unpack(e.packed()), e);
  EXPECT_NE(e, Ent(Topo::Tet, 43));
  EXPECT_NE(e, Ent(Topo::Hex, 42));
  EXPECT_LT(Ent(Topo::Tri, 5), Ent(Topo::Tet, 0));
}

TEST(Measure, TetVolumeSigned) {
  const double v = core::tetVolume({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1});
  EXPECT_NEAR(v, 1.0 / 6.0, 1e-15);
  const double w = core::tetVolume({0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {0, 0, 1});
  EXPECT_NEAR(w, -1.0 / 6.0, 1e-15);
}

TEST(Measure, UnitShapes) {
  Mesh m;
  // Unit hex volume 1.
  std::vector<Ent> hv;
  for (const Vec3& p : referenceCoords(Topo::Hex)) hv.push_back(m.createVertex(p));
  const Ent hex = m.buildElement(Topo::Hex, hv);
  EXPECT_NEAR(core::measure(m, hex), 1.0, 1e-12);
  // A face of it has area 1, an edge length 1.
  std::array<Ent, core::kMaxDown> buf{};
  m.downward(hex, 2, buf.data());
  EXPECT_NEAR(core::measure(m, buf[0]), 1.0, 1e-12);
  m.downward(hex, 1, buf.data());
  EXPECT_NEAR(core::measure(m, buf[0]), 1.0, 1e-12);
  EXPECT_EQ(core::measure(m, hv[0]), 0.0);
  // Centroid of the hex is the cube center.
  EXPECT_EQ(core::centroid(m, hex), Vec3(0.5, 0.5, 0.5));
}

TEST(Measure, MeshBounds) {
  Mesh m;
  m.createVertex({-1, 0, 2});
  m.createVertex({3, -2, 5});
  const auto box = core::bounds(m);
  EXPECT_EQ(box.lo, Vec3(-1, -2, 2));
  EXPECT_EQ(box.hi, Vec3(3, 0, 5));
}

TEST(TagIo, ExtentCoversExactlyOnePackedRecord) {
  // tagsExtent is the guard a decoder of untrusted bytes runs before
  // unpackTags: the whole record, nothing short, no unknown tag type.
  Mesh m;
  const Ent v = m.createVertex({0, 0, 0});
  m.tags().setScalar<int>(m.tags().create<int>("id"), v, 7);
  m.tags().setScalar<double>(m.tags().create<double>("w"), v, 2.5);
  pcu::OutBuffer b;
  core::packTags(m, v, b);
  const std::size_t n = b.size();
  b.pack<std::uint32_t>(99);  // bytes of the next record are not counted
  EXPECT_EQ(core::tagsExtent(b.data(), b.size()), n);
  for (std::size_t cut = 0; cut < n; ++cut)
    EXPECT_FALSE(core::tagsExtent(b.data(), cut)) << "cut at " << cut;
  // An unknown type code: it sits after the count, name length and name.
  pcu::OutBuffer one;
  core::packTags(m, v, one, "id");
  auto bytes = one.storage();
  ASSERT_EQ(core::tagsExtent(bytes.data(), bytes.size()), bytes.size());
  bytes[sizeof(std::uint32_t) + sizeof(std::uint64_t) + 2] = std::byte{9};
  EXPECT_FALSE(core::tagsExtent(bytes.data(), bytes.size()));
}

}  // namespace
