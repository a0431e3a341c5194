#ifndef PUMI_SOLVER_POISSON_HPP
#define PUMI_SOLVER_POISSON_HPP

/// \file poisson.hpp
/// \brief A distributed P1 finite-element Poisson solver — the PDE-analysis
/// consumer the infrastructure exists to support (the paper's Sec. I: "the
/// parallel unstructured mesh data structures and services needed by the
/// developers of PDE solution procedures").
///
/// Solves -lap(u) = f on the meshed domain with Dirichlet data g on the
/// geometric model boundary (every vertex classified below the mesh
/// dimension). Linear Lagrange elements on tets or tris; conjugate
/// gradients with owner-aware parallel reductions:
///   - element stiffness assembled part-locally,
///   - matrix-vector products accumulate partial sums across part-boundary
///     vertex copies with a dist::Exchange compiled once per solve: one
///     message per (copy part, owner part) channel carries the copies'
///     values, the owner adds them, and one message per reverse channel
///     returns the total. Channels are posted in ascending source part with
///     values in remotes() order, so each owner adds contributions in a
///     fixed order,
///   - dot products count each vertex once (on its owning part) and
///     accumulate serially in part order.
/// Assembly, matrix-vector products and vector updates run one task per
/// part on the network's worker pool (dist::Network::forEachPart), so
/// iterations and solution are bit-reproducible at every width.
/// The solution is written to the vertex field "u" on every part.

#include <functional>

#include "common/vec.hpp"
#include "dist/partedmesh.hpp"

namespace solver {

struct PoissonOptions {
  int max_iterations = 1000;
  double tolerance = 1e-10;  ///< relative residual reduction
};

struct PoissonReport {
  int iterations = 0;
  double residual = 0.0;  ///< final relative residual
  bool converged = false;
};

/// Solve -lap(u) = f, u = g on the model boundary. Requires a simplex
/// (tet/tri) PartedMesh without ghosts. The result is stored in the vertex
/// field "u" (tag "field:u") on all parts, consistent across copies.
///
/// Callback contract: f is called once per vertex copy and g once per
/// fixed (model-boundary) vertex copy, all on the calling thread, never
/// concurrently. Each must return the same value for the same point.
PoissonReport solvePoisson(dist::PartedMesh& pm,
                           const std::function<double(const common::Vec3&)>& f,
                           const std::function<double(const common::Vec3&)>& g,
                           const PoissonOptions& opts = {});

}  // namespace solver

#endif  // PUMI_SOLVER_POISSON_HPP
