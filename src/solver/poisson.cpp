#include "solver/poisson.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <cassert>
#include <optional>
#include <span>
#include <utility>

#include "core/measure.hpp"
#include "dist/exchange.hpp"
#include "field/field.hpp"
#include "gmi/model.hpp"

namespace solver {

using common::Vec3;
using core::Ent;
using dist::PartId;

namespace {

/// P1 shape-function gradients of a simplex element; returns the element
/// measure (volume/area).
double shapeGradients(const core::Mesh& mesh, Ent elem,
                      std::array<Vec3, 4>& grad, int& nv) {
  const auto vs = mesh.verts(elem);
  nv = static_cast<int>(vs.size());
  if (elem.topo() == core::Topo::Tet) {
    const Vec3 p0 = mesh.point(vs[0]);
    const Vec3 e1 = mesh.point(vs[1]) - p0;
    const Vec3 e2 = mesh.point(vs[2]) - p0;
    const Vec3 e3 = mesh.point(vs[3]) - p0;
    const double det = common::dot(e1, common::cross(e2, e3));
    if (det == 0.0) throw std::runtime_error("poisson: degenerate tet");
    grad[1] = common::cross(e2, e3) / det;
    grad[2] = common::cross(e3, e1) / det;
    grad[3] = common::cross(e1, e2) / det;
    grad[0] = -(grad[1] + grad[2] + grad[3]);
    return std::fabs(det) / 6.0;
  }
  if (elem.topo() == core::Topo::Tri) {
    const Vec3 p0 = mesh.point(vs[0]);
    const Vec3 e1 = mesh.point(vs[1]) - p0;
    const Vec3 e2 = mesh.point(vs[2]) - p0;
    const double a11 = common::dot(e1, e1), a12 = common::dot(e1, e2),
                 a22 = common::dot(e2, e2);
    const double det = a11 * a22 - a12 * a12;
    if (det == 0.0) throw std::runtime_error("poisson: degenerate tri");
    // grad lambda_k solves the Gram system for the barycentric basis.
    grad[1] = (e1 * a22 - e2 * a12) / det;
    grad[2] = (e2 * a11 - e1 * a12) / det;
    grad[0] = -(grad[1] + grad[2]);
    return 0.5 * std::sqrt(det);
  }
  throw std::invalid_argument("poisson: simplex meshes only");
}

/// All per-part solver state. Vertices are items in mesh.entities(0)
/// order (the Exchange's item order); `item` maps a vertex pool slot to
/// its item.
struct PartData {
  std::vector<Ent> verts;
  std::vector<int> item;
  // CSR stiffness.
  std::vector<int> row_ptr;
  std::vector<int> col;
  std::vector<double> val;
  std::vector<char> fixed;
  std::vector<char> owned;
  std::vector<double> load;  ///< f at each vertex, for the lumped load
  // Vectors.
  std::vector<double> u, b, r, p, q, z, diag;
};

class Context {
 public:
  explicit Context(dist::PartedMesh& pm)
      : net_(pm.network()), halo_(pm, 0) {
    data.resize(static_cast<std::size_t>(pm.parts()));
  }

  std::vector<PartData> data;

  /// Run fn on every part's data, one pool task per part.
  void forEach(const std::function<void(PartData&)>& fn) {
    net_.forEachPart(
        [&](PartId p) { fn(data[static_cast<std::size_t>(p)]); });
  }

  /// Sum partial values of shared vertices across parts; every copy ends up
  /// holding the total.
  void accumulate(std::vector<double> PartData::* vec) {
    std::vector<std::span<double>> values;
    values.reserve(data.size());
    for (auto& d : data) values.emplace_back(d.*vec);
    halo_.sum(values);
  }

  /// Global dot products a.b and c.d in one pass, counting each vertex once
  /// (on its owner) and accumulating serially in part order, so the sums
  /// do not depend on the width.
  [[nodiscard]] std::pair<double, double> dots(
      std::vector<double> PartData::* a, std::vector<double> PartData::* b,
      std::vector<double> PartData::* c,
      std::vector<double> PartData::* d) const {
    double ab = 0.0, cd = 0.0;
    for (const auto& pd : data) {
      for (std::size_t i = 0; i < pd.verts.size(); ++i) {
        if (!pd.owned[i]) continue;
        ab += (pd.*a)[i] * (pd.*b)[i];
        cd += (pd.*c)[i] * (pd.*d)[i];
      }
    }
    return {ab, cd};
  }
  [[nodiscard]] double dot(std::vector<double> PartData::* a,
                           std::vector<double> PartData::* b) const {
    return dots(a, b, a, b).first;
  }

  /// q = K p on every part, accumulated across copies, zeroed at Dirichlet
  /// rows (projected operator). When `beta` is set, each part first makes
  /// p = z + beta p (the previous iteration's direction update).
  void applyStiffness(std::optional<double> beta = std::nullopt) {
    forEach([&](PartData& d) {
      if (beta)
        for (std::size_t i = 0; i < d.verts.size(); ++i)
          d.p[i] = d.z[i] + *beta * d.p[i];
      for (std::size_t i = 0; i < d.verts.size(); ++i) {
        double acc = 0.0;
        for (int k = d.row_ptr[i]; k < d.row_ptr[i + 1]; ++k)
          acc += d.val[static_cast<std::size_t>(k)] *
                 d.p[static_cast<std::size_t>(
                     d.col[static_cast<std::size_t>(k)])];
        d.q[i] = acc;
      }
    });
    accumulate(&PartData::q);
    forEach([](PartData& d) {
      for (std::size_t i = 0; i < d.verts.size(); ++i)
        if (d.fixed[i]) d.q[i] = 0.0;
    });
  }

 private:
  dist::Network& net_;
  dist::Exchange halo_;
};

/// Part-local set-up: items, flags, vectors and the CSR pattern of the P1
/// stencil (self + edge neighbours), each row sorted.
void setUp(const dist::Part& part, int dim, PartData& d) {
  const core::Mesh& mesh = part.mesh();
  d.item.assign(mesh.slots(core::Topo::Vertex), -1);
  for (Ent v : mesh.entities(0)) {
    d.item[v.index()] = static_cast<int>(d.verts.size());
    d.verts.push_back(v);
  }
  const std::size_t n = d.verts.size();
  d.fixed.assign(n, 0);
  d.owned.assign(n, 0);
  d.load.assign(n, 0.0);
  for (auto* vec : {&d.u, &d.b, &d.r, &d.p, &d.q, &d.z, &d.diag})
    vec->assign(n, 0.0);
  d.row_ptr.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Ent v = d.verts[i];
    d.owned[i] = part.isOwned(v) ? 1 : 0;
    const gmi::Entity* cls = mesh.classification(v);
    d.fixed[i] = cls != nullptr && cls->dim() < dim ? 1 : 0;
    d.row_ptr[i + 1] =
        d.row_ptr[i] + 1 + static_cast<int>(mesh.up(v).size());
  }
  d.col.resize(static_cast<std::size_t>(d.row_ptr[n]));
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = d.col.begin() + d.row_ptr[i];
    auto c = row;
    *c++ = static_cast<int>(i);
    for (Ent e : mesh.up(d.verts[i])) {
      const auto vs = mesh.verts(e);
      const Ent other = vs[0] == d.verts[i] ? vs[1] : vs[0];
      *c++ = d.item[other.index()];
    }
    std::sort(row, c);
  }
  d.val.assign(static_cast<std::size_t>(d.row_ptr[n]), 0.0);
}

/// Element loop (ghost-free by precondition): stiffness into val, lumped
/// load into b.
void assemble(const core::Mesh& mesh, int dim, PartData& d) {
  auto entry = [&](int row, int column) -> double& {
    const auto begin = d.col.begin() + d.row_ptr[row];
    const auto end = d.col.begin() + d.row_ptr[row + 1];
    const auto it = std::lower_bound(begin, end, column);
    assert(it != end && *it == column);
    return d.val[static_cast<std::size_t>(it - d.col.begin())];
  };
  std::array<Vec3, 4> grad{};
  for (Ent elem : mesh.entities(dim)) {
    int nv = 0;
    const double measure = shapeGradients(mesh, elem, grad, nv);
    const auto vs = mesh.verts(elem);
    std::array<int, 4> li{};
    for (int a = 0; a < nv; ++a)
      li[static_cast<std::size_t>(a)] =
          d.item[vs[static_cast<std::size_t>(a)].index()];
    for (int a = 0; a < nv; ++a) {
      const auto row = static_cast<std::size_t>(li[static_cast<std::size_t>(a)]);
      for (int bcol = 0; bcol < nv; ++bcol)
        entry(li[static_cast<std::size_t>(a)], li[static_cast<std::size_t>(bcol)]) +=
            measure * common::dot(grad[static_cast<std::size_t>(a)],
                                  grad[static_cast<std::size_t>(bcol)]);
      d.b[row] += d.load[row] * measure / nv;
    }
  }
}

}  // namespace

PoissonReport solvePoisson(dist::PartedMesh& pm,
                           const std::function<double(const Vec3&)>& f,
                           const std::function<double(const Vec3&)>& g,
                           const PoissonOptions& opts) {
  const int dim = pm.dim();
  for (PartId p = 0; p < pm.parts(); ++p)
    if (pm.part(p).ghostCount() > 0)
      throw std::logic_error("poisson: unghost before solving");

  Context ctx(pm);
  auto& net = pm.network();

  // --- per-part setup & assembly -----------------------------------------
  net.forEachPart([&](PartId p) {
    setUp(pm.part(p), dim, ctx.data[static_cast<std::size_t>(p)]);
  });
  // The callbacks run here, on the calling thread: f once per vertex, g
  // once per fixed vertex.
  for (PartId p = 0; p < pm.parts(); ++p) {
    const core::Mesh& mesh = pm.part(p).mesh();
    auto& d = ctx.data[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < d.verts.size(); ++i) {
      const Vec3 x = mesh.point(d.verts[i]);
      d.load[i] = f(x);
      if (d.fixed[i]) d.u[i] = g(x);
    }
  }
  net.forEachPart([&](PartId p) {
    assemble(pm.part(p).mesh(), dim, ctx.data[static_cast<std::size_t>(p)]);
  });
  ctx.accumulate(&PartData::b);
  // Jacobi preconditioner: the accumulated stiffness diagonal.
  ctx.forEach([](PartData& d) {
    for (std::size_t i = 0; i < d.verts.size(); ++i) {
      for (int k = d.row_ptr[i]; k < d.row_ptr[i + 1]; ++k)
        if (d.col[static_cast<std::size_t>(k)] == static_cast<int>(i))
          d.diag[i] = d.val[static_cast<std::size_t>(k)];
    }
  });
  ctx.accumulate(&PartData::diag);

  // --- projected conjugate gradients ---------------------------------------
  // r = b - K u (u holds Dirichlet data), zeroed on fixed rows. The
  // projection only zeroes fixed rows of q, which r zeroes anyway.
  ctx.forEach([](PartData& d) { d.p = d.u; });
  ctx.applyStiffness();
  auto precondition = [](PartData& d) {  // z = diag^-1 r on free rows
    for (std::size_t i = 0; i < d.verts.size(); ++i)
      d.z[i] = (d.fixed[i] || d.diag[i] == 0.0) ? 0.0 : d.r[i] / d.diag[i];
  };
  ctx.forEach([&](PartData& d) {
    for (std::size_t i = 0; i < d.verts.size(); ++i)
      d.r[i] = d.fixed[i] ? 0.0 : d.b[i] - d.q[i];
    precondition(d);
    d.p = d.z;
  });
  auto [rz, rr] = ctx.dots(&PartData::r, &PartData::z, &PartData::r,
                           &PartData::r);
  const double rr0 = rr > 0.0 ? rr : 1.0;

  PoissonReport report;
  std::optional<double> beta;  // pending p = z + beta p
  for (int it = 0; it < opts.max_iterations; ++it) {
    if (std::sqrt(rr / rr0) < opts.tolerance) {
      report.converged = true;
      break;
    }
    ctx.applyStiffness(beta);
    const double pq = ctx.dot(&PartData::p, &PartData::q);
    if (pq <= 0.0) break;  // matrix not SPD on the free space: give up
    const double alpha = rz / pq;
    ctx.forEach([&](PartData& d) {
      for (std::size_t i = 0; i < d.verts.size(); ++i) {
        d.u[i] += alpha * d.p[i];
        d.r[i] -= alpha * d.q[i];
      }
      precondition(d);
    });
    const auto [rz_new, rr_new] = ctx.dots(&PartData::r, &PartData::z,
                                           &PartData::r, &PartData::r);
    beta = rz_new / rz;
    rz = rz_new;
    rr = rr_new;
    report.iterations = it + 1;
  }
  report.residual = std::sqrt(rr / rr0);
  if (std::sqrt(rr / rr0) < opts.tolerance) report.converged = true;

  // --- publish the solution as the vertex field "u" ------------------------
  net.forEachPart([&](PartId p) {
    const auto& d = ctx.data[static_cast<std::size_t>(p)];
    field::Field u(pm.part(p).mesh(), "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (std::size_t i = 0; i < d.verts.size(); ++i)
      u.setScalar(d.verts[i], d.u[i]);
  });
  return report;
}

}  // namespace solver
