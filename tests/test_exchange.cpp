// dist::Exchange: the compiled halo sum over part-boundary copies.
//
// Oracles: a brute-force sum over every vertex copy keyed by the vertex's
// coordinate digest; message counts against the plan's channel count;
// serial vs threaded delivery; framed transport under a seeded corruption
// plan, with and without reliable delivery; malformed bodies.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "dist/exchange.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "pcu/arq.hpp"
#include "pcu/faults.hpp"

namespace {

using common::Vec3;
using core::Ent;
using dist::PartId;

/// Per-part value arrays, one value per vertex in entities(0) order.
using Values = std::vector<std::vector<double>>;

struct Case {
  meshgen::Generated gen;
  std::unique_ptr<dist::PartedMesh> pm;
};

/// A seeded random partition of a 2D or 3D box into `nparts` parts.
Case randomCase(bool three_d, int nparts, std::uint64_t seed) {
  Case c{three_d ? meshgen::boxTets(4, 4, 3) : meshgen::boxTris(10, 9), {}};
  common::Rng rng(seed);
  const std::size_t n = c.gen.mesh->count(c.gen.mesh->dim());
  std::vector<PartId> assign(n);
  for (std::size_t i = 0; i < n; ++i)
    assign[i] = i < static_cast<std::size_t>(nparts)
                    ? static_cast<PartId>(i)
                    : static_cast<PartId>(rng.below(static_cast<std::uint64_t>(nparts)));
  c.pm = dist::PartedMesh::distribute(
      *c.gen.mesh, c.gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
  return c;
}

/// Vertex identity across parts: the bit patterns of its coordinates.
std::uint64_t vertexDigest(const core::Mesh& m, Ent v) {
  const Vec3 x = m.point(v);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (double c : {x.x, x.y, x.z}) {
    h ^= std::bit_cast<std::uint64_t>(c);
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

/// Random per-copy values. With `exact`, integers plus a dyadic fraction,
/// so every summation order gives bitwise the same total.
Values randomValues(dist::PartedMesh& pm, std::uint64_t seed, bool exact) {
  common::Rng rng(seed);
  Values vals(static_cast<std::size_t>(pm.parts()));
  for (PartId p = 0; p < pm.parts(); ++p)
    for (Ent v : pm.part(p).mesh().entities(0)) {
      (void)v;
      vals[static_cast<std::size_t>(p)].push_back(
          exact ? static_cast<double>(rng.range(-1000, 1000)) +
                      static_cast<double>(rng.below(1024)) / 1024.0
                : rng.uniform(-1.0, 1.0));
    }
  return vals;
}

std::vector<std::span<double>> views(Values& vals) {
  std::vector<std::span<double>> out;
  for (auto& v : vals) out.emplace_back(v);
  return out;
}

/// Bitwise equality of two value sets.
void expectSameBits(const Values& a, const Values& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].size(), b[p].size());
    for (std::size_t i = 0; i < a[p].size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[p][i]),
                std::bit_cast<std::uint64_t>(b[p][i]))
          << "part " << p << " item " << i;
  }
}

/// Run one sum on a fresh random case and return the result.
Values sumOnce(bool three_d, int nparts, std::uint64_t seed, int threads) {
  auto c = randomCase(three_d, nparts, seed);
  c.pm->network().setDeliveryThreads(threads);
  dist::Exchange ex(*c.pm, 0);
  auto vals = randomValues(*c.pm, seed * 7 + 1, /*exact=*/false);
  ex.sum(views(vals));
  return vals;
}

class ExchangeRandom
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>> {};

TEST_P(ExchangeRandom, SumMatchesBruteForceAndCopiesAgree) {
  const auto [three_d, seed] = GetParam();
  common::Rng pick(seed);
  const int nparts = 2 + static_cast<int>(pick.below(15));  // 2..16
  auto c = randomCase(three_d, nparts, seed);
  auto& pm = *c.pm;
  dist::Exchange ex(pm, 0);
  auto vals = randomValues(pm, seed + 99, /*exact=*/true);

  std::map<std::uint64_t, double> expect;
  for (PartId p = 0; p < pm.parts(); ++p) {
    const auto& m = pm.part(p).mesh();
    std::size_t i = 0;
    for (Ent v : m.entities(0))
      expect[vertexDigest(m, v)] += vals[static_cast<std::size_t>(p)][i++];
  }

  pm.network().resetStats();
  ex.sum(views(vals));
  const auto& st = pm.network().stats();
  EXPECT_EQ(st.messages_sent, 2 * ex.channels());
  EXPECT_EQ(st.physical_messages, 2 * ex.channels());
  EXPECT_GT(ex.channels(), 0u);

  for (PartId p = 0; p < pm.parts(); ++p) {
    const auto& m = pm.part(p).mesh();
    EXPECT_EQ(ex.items(p), m.count(0));
    std::size_t i = 0;
    for (Ent v : m.entities(0)) {
      const double got = vals[static_cast<std::size_t>(p)][i++];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(expect.at(vertexDigest(m, v))))
          << "part " << p << " vertex " << i - 1;
    }
  }
}

TEST_P(ExchangeRandom, SerialAndThreadedDeliveryAgreeBitwise) {
  const auto [three_d, seed] = GetParam();
  common::Rng pick(seed);
  const int nparts = 2 + static_cast<int>(pick.below(15));
  expectSameBits(sumOnce(three_d, nparts, seed, 0),
                 sumOnce(three_d, nparts, seed, 4));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ExchangeRandom,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "tets" : "tris") + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Exchange, EveryCopyCarriesTheOwnersTotal) {
  // Non-exact values: summation order matters, so agreement between copies
  // is the broadcast's work, bit for bit.
  auto c = randomCase(true, 9, 17);
  dist::Exchange ex(*c.pm, 0);
  auto vals = randomValues(*c.pm, 5, /*exact=*/false);
  ex.sum(views(vals));
  auto& pm = *c.pm;
  std::map<std::uint64_t, std::uint64_t> seen;
  for (PartId p = 0; p < pm.parts(); ++p) {
    const auto& m = pm.part(p).mesh();
    std::size_t i = 0;
    for (Ent v : m.entities(0)) {
      const auto bits =
          std::bit_cast<std::uint64_t>(vals[static_cast<std::size_t>(p)][i++]);
      const auto [it, fresh] = seen.emplace(vertexDigest(m, v), bits);
      EXPECT_TRUE(fresh || it->second == bits) << "part " << p;
    }
  }
}

TEST(Exchange, RejectsValueArraysThatDoNotMatchThePlan) {
  auto c = randomCase(false, 3, 2);
  dist::Exchange ex(*c.pm, 0);
  auto vals = randomValues(*c.pm, 1, true);
  vals[1].pop_back();
  EXPECT_THROW(ex.sum(views(vals)), std::invalid_argument);
  vals.pop_back();
  EXPECT_THROW(ex.sum(views(vals)), std::invalid_argument);
}

// --- framed transport -------------------------------------------------------

struct PlanGuard {
  explicit PlanGuard(const pcu::faults::FaultPlan& p) {
    pcu::faults::setPlan(p);
  }
  ~PlanGuard() { pcu::faults::clearPlan(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

struct ReliableGuard {
  ReliableGuard() {
    pcu::arq::resetStats();
    pcu::arq::setReliable(true);
  }
  ~ReliableGuard() { pcu::arq::setReliable(false); }
  ReliableGuard(const ReliableGuard&) = delete;
  ReliableGuard& operator=(const ReliableGuard&) = delete;
};

pcu::faults::FaultPlan corruptPlan() {
  pcu::faults::FaultPlan plan;
  plan.seed = 23;
  plan.corrupt = 0.2;
  return plan;
}

TEST(ExchangeFramed, CorruptionSurfacesAStructuredError) {
  auto c = randomCase(true, 8, 11);
  dist::Exchange ex(*c.pm, 0);
  auto vals = randomValues(*c.pm, 3, false);
  PlanGuard guard(corruptPlan());
  try {
    ex.sum(views(vals));
    FAIL() << "corrupted frames were accepted";
  } catch (const pcu::Error& e) {
    EXPECT_EQ(e.code(), pcu::ErrorCode::kCorruptPayload) << e.what();
    EXPECT_EQ(e.tag(), dist::kNetChannelTag);
  }
}

TEST(ExchangeFramed, ReliableDeliveryRecoversIdenticalSums) {
  Values clean;
  {
    auto c = randomCase(true, 8, 11);
    dist::Exchange ex(*c.pm, 0);
    clean = randomValues(*c.pm, 3, false);
    ex.sum(views(clean));
  }
  auto c = randomCase(true, 8, 11);
  dist::Exchange ex(*c.pm, 0);
  auto vals = randomValues(*c.pm, 3, false);
  ReliableGuard reliable;
  PlanGuard guard(corruptPlan());
  ex.sum(views(vals));
  EXPECT_GT(pcu::arq::stats().corrupt_dropped, 0u);
  EXPECT_EQ(pcu::arq::stats().recovered, pcu::arq::stats().corrupt_dropped);
  expectSameBits(vals, clean);
}

// --- untrusted payloads -----------------------------------------------------

/// A (copy part, owner part) pair that has a reduce channel.
std::pair<PartId, PartId> reducePair(const dist::PartedMesh& pm) {
  for (PartId p = 0; p < pm.parts(); ++p)
    for (const auto& [e, rem] : pm.part(p).remotes())
      if (e.topo() == core::Topo::Vertex && rem.owner != p)
        return {p, rem.owner};
  return {-1, -1};
}

/// Two parts sharing no vertex.
std::pair<PartId, PartId> unrelatedPair(const dist::PartedMesh& pm) {
  for (PartId a = 0; a < pm.parts(); ++a) {
    const auto near = pm.part(a).neighborParts(0);
    for (PartId b = 0; b < pm.parts(); ++b)
      if (b != a && std::find(near.begin(), near.end(), b) == near.end())
        return {a, b};
  }
  return {-1, -1};
}

void expectValidation(const std::function<void()>& fn, PartId from,
                      PartId to) {
  try {
    fn();
    FAIL() << "malformed body accepted";
  } catch (const pcu::Error& e) {
    EXPECT_EQ(e.code(), pcu::ErrorCode::kValidation) << e.what();
    EXPECT_EQ(e.rank(), to);
    EXPECT_EQ(e.peer(), from);
    const std::string what = e.what();
    EXPECT_NE(what.find("from part " + std::to_string(from)), std::string::npos)
        << what;
    EXPECT_NE(what.find("to part " + std::to_string(to)), std::string::npos)
        << what;
  }
}

class ExchangeRogue : public ::testing::TestWithParam<int> {};

TEST_P(ExchangeRogue, BodyOfTheWrongLengthIsRejected) {
  auto c = randomCase(true, 6, 4);
  c.pm->network().setDeliveryThreads(GetParam());
  dist::Exchange ex(*c.pm, 0);
  auto vals = randomValues(*c.pm, 8, false);
  const auto [from, to] = reducePair(*c.pm);
  ASSERT_GE(from, 0);
  pcu::OutBuffer rogue;
  rogue.pack<std::uint8_t>(7);
  rogue.pack<std::uint16_t>(7);
  c.pm->network().send(from, to, std::move(rogue));
  expectValidation([&] { ex.sum(views(vals)); }, from, to);
}

TEST_P(ExchangeRogue, BodyFromAPairWithNoChannelIsRejected) {
  // Stripes across x: far-apart stripes share no vertex.
  Case c{meshgen::boxTris(16, 4), {}};
  std::vector<PartId> assign;
  for (Ent e : c.gen.mesh->entities(2)) {
    double x = 0.0;
    for (Ent v : c.gen.mesh->verts(e)) x += c.gen.mesh->point(v).x / 3.0;
    assign.push_back(std::min<PartId>(7, static_cast<PartId>(x * 8.0)));
  }
  c.pm = dist::PartedMesh::distribute(*c.gen.mesh, c.gen.model.get(), assign,
                                      dist::PartMap(8, pcu::Machine::flat(8)));
  c.pm->network().setDeliveryThreads(GetParam());
  dist::Exchange ex(*c.pm, 0);
  auto vals = randomValues(*c.pm, 8, false);
  const auto [from, to] = unrelatedPair(*c.pm);
  ASSERT_GE(from, 0);
  pcu::OutBuffer rogue;
  rogue.pack<double>(1.0);
  c.pm->network().send(from, to, std::move(rogue));
  expectValidation([&] { ex.sum(views(vals)); }, from, to);
}

TEST_P(ExchangeRogue, MalformedPlanBodyIsRejectedAtBuild) {
  auto c = randomCase(true, 5, 9);
  c.pm->network().setDeliveryThreads(GetParam());
  pcu::OutBuffer rogue;
  rogue.pack<std::uint64_t>(1u << 30);  // announces far more handles than sent
  c.pm->network().send(3, 1, std::move(rogue));
  expectValidation([&] { dist::Exchange ex(*c.pm, 0); }, 3, 1);
}

INSTANTIATE_TEST_SUITE_P(Delivery, ExchangeRogue, ::testing::Values(0, 4),
                         [](const auto& info) {
                           return std::string(info.param > 1 ? "threaded"
                                                             : "serial");
                         });

}  // namespace
