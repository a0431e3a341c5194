#include <gtest/gtest.h>

#include <bit>

#include "core/measure.hpp"
#include "dist/partedmesh.hpp"
#include "field/field.hpp"
#include "meshgen/boxmesh.hpp"
#include "meshgen/workloads.hpp"
#include "part/partition.hpp"
#include "solver/poisson.hpp"

namespace {

using common::Vec3;
using core::Ent;
using dist::PartId;

std::unique_ptr<dist::PartedMesh> parted(meshgen::Generated& gen, int nparts) {
  const auto assign =
      part::partition(*gen.mesh, nparts, part::Method::GraphRB);
  return dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
}

/// Max |u - exact| over all parts' vertices.
double maxError(dist::PartedMesh& pm,
                const std::function<double(const Vec3&)>& exact) {
  double err = 0.0;
  for (PartId p = 0; p < pm.parts(); ++p) {
    auto& mesh = pm.part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0))
      err = std::max(err, std::fabs(u.getScalar(v) - exact(mesh.point(v))));
  }
  return err;
}

class PoissonParts : public ::testing::TestWithParam<int> {};

TEST_P(PoissonParts, LinearSolutionIsExact) {
  // Harmonic linear field: P1 elements represent it exactly, so the solver
  // must reproduce it to solver tolerance for any partition.
  const int nparts = GetParam();
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = parted(gen, nparts);
  auto exact = [](const Vec3& x) { return 1.0 + 2.0 * x.x - x.y + 0.5 * x.z; };
  const auto report = solver::solvePoisson(
      *pm, [](const Vec3&) { return 0.0; }, exact, {.tolerance = 1e-12});
  EXPECT_TRUE(report.converged);
  EXPECT_LT(maxError(*pm, exact), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, PoissonParts, ::testing::Values(1, 2, 4, 8));

TEST(Poisson, SolutionConsistentAcrossCopies) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = parted(gen, 4);
  solver::solvePoisson(
      *pm, [](const Vec3&) { return 1.0; }, [](const Vec3&) { return 0.0; },
      {.tolerance = 1e-11});
  for (PartId p = 0; p < pm->parts(); ++p) {
    auto& mesh = pm->part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0)) {
      const dist::Remote* r = pm->part(p).remote(v);
      if (r == nullptr) continue;
      for (const dist::Copy& c : r->copies) {
        field::Field uq(pm->part(c.part).mesh(), "u",
                        field::ValueType::Scalar, field::Location::Vertex);
        EXPECT_NEAR(uq.getScalar(c.ent), u.getScalar(v), 1e-12);
      }
    }
  }
}

TEST(Poisson, PartitionIndependence) {
  // The discrete solution is a property of the mesh, not the partition:
  // different part counts must agree at matching locations.
  auto gen1 = meshgen::boxTets(3, 3, 3);
  auto gen2 = meshgen::boxTets(3, 3, 3);
  auto pm1 = parted(gen1, 2);
  auto pm2 = parted(gen2, 7);
  auto f = [](const Vec3& x) { return x.x + 1.0; };
  auto g = [](const Vec3& x) { return x.y; };
  solver::solvePoisson(*pm1, f, g, {.tolerance = 1e-12});
  solver::solvePoisson(*pm2, f, g, {.tolerance = 1e-12});
  // Collect position -> value from both and compare.
  std::map<std::tuple<double, double, double>, double> sol1;
  for (PartId p = 0; p < pm1->parts(); ++p) {
    auto& mesh = pm1->part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0)) {
      const auto x = mesh.point(v);
      sol1[{x.x, x.y, x.z}] = u.getScalar(v);
    }
  }
  for (PartId p = 0; p < pm2->parts(); ++p) {
    auto& mesh = pm2->part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0)) {
      const auto x = mesh.point(v);
      EXPECT_NEAR(u.getScalar(v), sol1.at({x.x, x.y, x.z}), 1e-8);
    }
  }
}

TEST(Poisson, ManufacturedSolutionConverges) {
  // u = sin(pi x) sin(pi y) sin(pi z), f = 3 pi^2 u, u = 0 on the boundary.
  auto exact = [](const Vec3& x) {
    return std::sin(M_PI * x.x) * std::sin(M_PI * x.y) * std::sin(M_PI * x.z);
  };
  auto f = [&](const Vec3& x) { return 3.0 * M_PI * M_PI * exact(x); };
  auto zero = [](const Vec3&) { return 0.0; };
  double prev_err = 1e300;
  for (int n : {4, 8}) {
    auto gen = meshgen::boxTets(n, n, n);
    auto pm = parted(gen, 4);
    const auto report =
        solver::solvePoisson(*pm, f, zero, {.max_iterations = 2000,
                                            .tolerance = 1e-10});
    EXPECT_TRUE(report.converged);
    const double err = maxError(*pm, exact);
    EXPECT_LT(err, prev_err * 0.45);  // ~2nd order: 4x fewer error per halving
    prev_err = err;
  }
  EXPECT_LT(prev_err, 0.03);
}

TEST(Poisson, TwoDimensionalMesh) {
  auto gen = meshgen::boxTris(8, 8);
  auto pm = parted(gen, 3);
  auto exact = [](const Vec3& x) { return 2.0 * x.x + 3.0 * x.y; };
  const auto report = solver::solvePoisson(
      *pm, [](const Vec3&) { return 0.0; }, exact, {.tolerance = 1e-12});
  EXPECT_TRUE(report.converged);
  EXPECT_LT(maxError(*pm, exact), 1e-9);
}

/// Bitwise hash of the field "u": one entry per vertex location (the
/// coordinates' bit patterns), holding the bit pattern of its value. Every
/// copy of a vertex must carry bitwise the same value.
std::uint64_t solutionHash(dist::PartedMesh& pm) {
  using Key = std::array<std::uint64_t, 3>;
  std::map<Key, std::uint64_t> bits;
  for (PartId p = 0; p < pm.parts(); ++p) {
    auto& mesh = pm.part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0)) {
      const Vec3 x = mesh.point(v);
      const Key key{std::bit_cast<std::uint64_t>(x.x),
                    std::bit_cast<std::uint64_t>(x.y),
                    std::bit_cast<std::uint64_t>(x.z)};
      const auto value = std::bit_cast<std::uint64_t>(u.getScalar(v));
      const auto [it, fresh] = bits.emplace(key, value);
      EXPECT_TRUE(fresh || it->second == value)
          << "copies of one vertex disagree on part " << p;
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the sorted entries
  auto mix = [&](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [key, value] : bits) {
    for (std::uint64_t k : key) mix(k);
    mix(value);
  }
  return h;
}

struct GoldenCase {
  const char* name;
  int nparts;
  int iterations;
  std::uint64_t hash;
};

/// Name the case, not its bytes: gtest would print the `name` pointer's
/// value into the ctest name, which changes from build to build.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.name << c.nparts;
}

/// The solver's exact arithmetic is part of its contract: iteration counts
/// and every bit of the solution are pinned for a fixed input, in serial
/// and threaded delivery alike.
class PoissonGolden
    : public ::testing::TestWithParam<std::tuple<GoldenCase, int>> {};

TEST_P(PoissonGolden, IterationsAndSolutionBitsArePinned) {
  const auto& [golden, threads] = GetParam();
  const bool is2d = std::string(golden.name) == "tris";
  auto gen = is2d ? meshgen::boxTris(9, 7)
                  : meshgen::vessel({.circumferential = 4, .axial = 10});
  auto pm = parted(gen, golden.nparts);
  pm->network().setDeliveryThreads(threads);
  const auto report = solver::solvePoisson(
      *pm,
      [](const Vec3& x) { return 1.0 + 0.5 * std::sin(1.3 * x.x + 0.7 * x.y + 0.4 * x.z); },
      [](const Vec3& x) { return 0.25 * x.x - 0.5 * x.y + 0.125 * x.z; },
      {.max_iterations = 1000, .tolerance = 1e-10});
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, golden.iterations);
  EXPECT_EQ(solutionHash(*pm), golden.hash)
      << std::hex << "0x" << solutionHash(*pm);
}

INSTANTIATE_TEST_SUITE_P(
    Fixed, PoissonGolden,
    ::testing::Combine(
        ::testing::Values(GoldenCase{"vessel", 1, 26, 0x50f6e612dad48e04ull},
                          GoldenCase{"vessel", 4, 26, 0xc67ef7260224751bull},
                          GoldenCase{"vessel", 8, 26, 0xc044ec589eae34bbull},
                          GoldenCase{"tris", 5, 31, 0xb0fd75e41f58bcf5ull}),
        ::testing::Values(0, 4)),
    [](const auto& info) {
      const GoldenCase& golden = std::get<0>(info.param);
      return std::string(golden.name) + std::to_string(golden.nparts) +
             (std::get<1>(info.param) > 1 ? "_threaded" : "_serial");
    });

TEST(Poisson, RefusesGhostedMesh) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = parted(gen, 2);
  pm->ghostLayers(1);
  EXPECT_THROW(solver::solvePoisson(
                   *pm, [](const Vec3&) { return 0.0; },
                   [](const Vec3&) { return 0.0; }),
               std::logic_error);
}

}  // namespace
