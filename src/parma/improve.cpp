#include "parma/improve.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "common/flatmap.hpp"
#include "pcu/trace.hpp"

namespace parma {

using core::Ent;
using core::EntHash;

namespace {

/// A cavity: a small group of elements on the heavy part selected to move
/// together to one candidate part.
using Cavity = std::vector<Ent>;

/// True when the entity is shared with part q.
bool sharedWith(const dist::Part& p, Ent e, PartId q) {
  const dist::Remote* r = p.remote(e);
  if (r == nullptr) return false;
  return std::any_of(r->copies.begin(), r->copies.end(),
                     [&](const dist::Copy& c) { return c.part == q; });
}

/// Layout-invariant total order: an entity keyed by the bit patterns of
/// its sorted vertex coordinates. Distinct entities of one dimension never
/// share a vertex set, so the key orders candidates identically no matter
/// how handles were assigned — every balancing decision (greedy cavity
/// selection under a budget) then gives the same answer with locality
/// reordering on or off.
using GeomKey = std::array<std::uint64_t, 3 * core::kMaxDown>;

GeomKey geomKey(const core::Mesh& mesh, Ent e) {
  GeomKey key;
  key.fill(~std::uint64_t{0});
  const auto bits = [](const common::Vec3& x) {
    return std::array<std::uint64_t, 3>{std::bit_cast<std::uint64_t>(x.x),
                                        std::bit_cast<std::uint64_t>(x.y),
                                        std::bit_cast<std::uint64_t>(x.z)};
  };
  if (core::topoDim(e.topo()) == 0) {
    const auto v = bits(mesh.point(e));
    std::copy(v.begin(), v.end(), key.begin());
    return key;
  }
  const auto vs = mesh.verts(e);
  std::array<std::array<std::uint64_t, 3>, core::kMaxDown> vk{};
  for (std::size_t i = 0; i < vs.size(); ++i) vk[i] = bits(mesh.point(vs[i]));
  std::sort(vk.begin(), vk.begin() + static_cast<std::ptrdiff_t>(vs.size()));
  for (std::size_t i = 0; i < vs.size(); ++i)
    std::copy(vk[i].begin(), vk[i].end(), key.begin() + 3 * static_cast<std::ptrdiff_t>(i));
  return key;
}

/// Spread the low 21 bits of x so three coordinates interleave into one
/// 63-bit Morton code.
std::uint64_t spreadBits(std::uint64_t x) {
  x &= 0x1fffff;
  x = (x | x << 32) & 0x1f00000000ffffULL;
  x = (x | x << 16) & 0x1f0000ff0000ffULL;
  x = (x | x << 8) & 0x100f00f00f00f00fULL;
  x = (x | x << 4) & 0x10c30c30c30c30c3ULL;
  x = (x | x << 2) & 0x1249249249249249ULL;
  return x;
}

common::Vec3 centroidOf(const core::Mesh& mesh, Ent e) {
  if (core::topoDim(e.topo()) == 0) return mesh.point(e);
  common::Vec3 c{0, 0, 0};
  const auto vs = mesh.verts(e);
  for (Ent v : vs) c = c + mesh.point(v);
  return c * (1.0 / static_cast<double>(vs.size()));
}

/// Sort entities along a Morton (Z-order) curve over their centroids,
/// exact geomKey as tie-break. Greedy selection with budget cutoffs then
/// sweeps the boundary in spatially coherent runs (as the old
/// creation-handle order did for structured meshes) instead of jumping
/// around it, while staying layout-invariant.
void sortGeom(const core::Mesh& mesh, std::vector<Ent>& es) {
  if (es.size() < 2) return;
  std::vector<common::Vec3> cs;
  cs.reserve(es.size());
  common::Vec3 lo = centroidOf(mesh, es[0]), hi = lo;
  for (Ent e : es) {
    const auto c = centroidOf(mesh, e);
    cs.push_back(c);
    lo = {std::min(lo.x, c.x), std::min(lo.y, c.y), std::min(lo.z, c.z)};
    hi = {std::max(hi.x, c.x), std::max(hi.y, c.y), std::max(hi.z, c.z)};
  }
  const auto cell = [&](double v, double l, double h) {
    constexpr double kCells = 1 << 21;
    if (h <= l) return std::uint64_t{0};
    const double t = (v - l) / (h - l) * (kCells - 1.0);
    return static_cast<std::uint64_t>(std::max(0.0, std::min(t, kCells - 1.0)));
  };
  std::vector<std::tuple<std::uint64_t, GeomKey, Ent>> keyed;
  keyed.reserve(es.size());
  for (std::size_t i = 0; i < es.size(); ++i) {
    const std::uint64_t m = spreadBits(cell(cs[i].x, lo.x, hi.x)) |
                            spreadBits(cell(cs[i].y, lo.y, hi.y)) << 1 |
                            spreadBits(cell(cs[i].z, lo.z, hi.z)) << 2;
    keyed.emplace_back(m, geomKey(mesh, es[i]), es[i]);
  }
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t i = 0; i < es.size(); ++i) es[i] = std::get<2>(keyed[i]);
}

/// The part-boundary entities of one heavy part, bucketed by (dimension,
/// peer part). A dimension's buckets are filled by one scan of remotes() on
/// first use, so every candidate peer of an iteration shares that scan
/// instead of rescanning the boundary per peer. Valid while the part is
/// unchanged: one index per heavy part per iteration.
class BoundaryIndex {
 public:
  BoundaryIndex(const dist::Part& p, int nparts) : part_(p), nparts_(nparts) {}

  /// Entities of dimension `dim` shared with part q, in layout-invariant
  /// geometric order. sortGeom is a total order, so the result does not
  /// depend on the bucket's scan order. Touches only the boundary, never
  /// the whole part mesh.
  std::vector<Ent> with(PartId q, int dim) {
    auto& buckets = by_peer_[static_cast<std::size_t>(dim)];
    if (buckets.empty()) {
      buckets.resize(static_cast<std::size_t>(nparts_));
      for (const auto& [e, r] : part_.remotes()) {
        if (core::topoDim(e.topo()) != dim) continue;
        for (const dist::Copy& c : r.copies)
          buckets[static_cast<std::size_t>(c.part)].push_back(e);
      }
    }
    std::vector<Ent> out = buckets[static_cast<std::size_t>(q)];
    sortGeom(part_.mesh(), out);
    return out;
  }

 private:
  const dist::Part& part_;
  int nparts_;
  std::array<std::vector<std::vector<Ent>>, 4> by_peer_;
};

/// Upward adjacency of `f` in geometric order (the pool order of up() is
/// layout-dependent).
std::vector<Ent> upSorted(const core::Mesh& mesh, Ent f) {
  const auto& up = mesh.up(f);
  std::vector<Ent> out(up.begin(), up.end());
  sortGeom(mesh, out);
  return out;
}

/// Fig. 9 selection (element balancing): elements next to the q-boundary
/// with more boundary faces than interior faces.
std::vector<Cavity> selectForElements(const dist::Part& p,
                                      BoundaryIndex& boundary, PartId q,
                                      int elem_dim) {
  std::vector<Cavity> out;
  common::FlatSet<Ent, EntHash> chosen;
  const auto& mesh = p.mesh();
  const auto shared_faces = boundary.with(q, elem_dim - 1);
  for (Ent f : shared_faces) {
    for (Ent e : upSorted(mesh, f)) {
      if (p.isGhost(e) || chosen.count(e)) continue;
      std::array<Ent, core::kMaxDown> faces{};
      const int nf = mesh.downward(e, elem_dim - 1, faces.data());
      int boundary = 0;
      for (int i = 0; i < nf; ++i)
        if (p.isShared(faces[static_cast<std::size_t>(i)])) ++boundary;
      if (boundary > nf - boundary) {
        chosen.insert(e);
        out.push_back(Cavity{e});
      }
    }
  }
  // Fallback for progress when the boundary is too smooth for the
  // heuristic: any element touching the q-boundary.
  if (out.empty()) {
    for (Ent f : shared_faces) {
      for (Ent e : upSorted(mesh, f))
        if (!p.isGhost(e) && chosen.insert(e).second) out.push_back(Cavity{e});
    }
  }
  return out;
}

/// Fig. 10 selection (edge/face balancing): part-boundary edges shared with
/// q that bound at most two local faces; the adjacent elements form the
/// cavity (case (a) — case (b), three or more faces, is skipped because it
/// would grow the boundary).
std::vector<Cavity> selectForEdgesFaces(const dist::Part& p,
                                        BoundaryIndex& boundary, PartId q,
                                        int elem_dim) {
  std::vector<Cavity> out;
  common::FlatSet<Ent, EntHash> chosen;
  const auto& mesh = p.mesh();
  core::AdjVec adj;
  for (Ent e : boundary.with(q, 1)) {
    if (mesh.up(e).size() > 2) continue;
    Cavity cav;
    bool clash = false;
    const int na = mesh.adjacentInto(e, elem_dim, adj);
    for (int k = 0; k < na; ++k) {
      const Ent elem = adj[static_cast<std::size_t>(k)];
      if (p.isGhost(elem)) continue;
      if (chosen.count(elem)) clash = true;
      cav.push_back(elem);
    }
    if (clash || cav.empty()) continue;
    for (Ent elem : cav) chosen.insert(elem);
    out.push_back(std::move(cav));
  }
  return out;
}

/// Vertex balancing (Zhou's strategy): boundary vertices shared with q
/// whose local element cavity is small; moving the whole cavity removes
/// the vertex from this part.
std::vector<Cavity> selectForVertices(const dist::Part& p,
                                      BoundaryIndex& boundary, PartId q,
                                      int elem_dim, int max_cavity) {
  std::vector<Cavity> out;
  common::FlatSet<Ent, EntHash> chosen;
  const auto& mesh = p.mesh();
  core::AdjVec adj;
  for (Ent v : boundary.with(q, 0)) {
    Cavity cav;
    bool clash = false;
    const int na = mesh.adjacentInto(v, elem_dim, adj);
    for (int k = 0; k < na; ++k) {
      const Ent elem = adj[static_cast<std::size_t>(k)];
      if (p.isGhost(elem)) continue;
      if (chosen.count(elem)) clash = true;
      cav.push_back(elem);
    }
    if (clash || cav.empty() ||
        cav.size() > static_cast<std::size_t>(max_cavity))
      continue;
    for (Ent elem : cav) chosen.insert(elem);
    out.push_back(std::move(cav));
  }
  // Smallest vertex stars first (stable: equal sizes keep the coherent
  // geometric sweep): each removes its vertex at the least element churn,
  // so the greedy budget converges closer to the mean.
  std::stable_sort(out.begin(), out.end(),
                   [](const Cavity& a, const Cavity& b) {
                     return a.size() < b.size();
                   });
  // Fallback: when no vertex has a small enough local star, fall back to
  // boundary-hugging single elements (still shifts boundary vertices).
  if (out.empty()) return selectForElements(p, boundary, q, elem_dim);
  return out;
}

/// Ablation selection: every element touching the q-boundary, one per
/// cavity, with no boundary-quality consideration.
std::vector<Cavity> selectNaive(const dist::Part& p, BoundaryIndex& boundary,
                                PartId q, int elem_dim) {
  std::vector<Cavity> out;
  common::FlatSet<Ent, EntHash> chosen;
  const auto& mesh = p.mesh();
  for (Ent f : boundary.with(q, elem_dim - 1)) {
    for (Ent e : upSorted(mesh, f))
      if (!p.isGhost(e) && chosen.insert(e).second) out.push_back(Cavity{e});
  }
  return out;
}

std::vector<Cavity> selectCavities(const dist::Part& p,
                                   BoundaryIndex& boundary, PartId q, int dim,
                                   int elem_dim, const ImproveOptions& opts) {
  if (!opts.heuristic_selection) return selectNaive(p, boundary, q, elem_dim);
  if (dim == elem_dim) return selectForElements(p, boundary, q, elem_dim);
  if (dim == 0)
    return selectForVertices(p, boundary, q, elem_dim, opts.max_cavity);
  return selectForEdgesFaces(p, boundary, q, elem_dim);
}

/// What moving a cavity from p to q does to the per-dimension counts, filled
/// only where the diffusion decision reads it (the decision reads `adds` at
/// the balanced dimension and the protected ones, `leaves` at the balanced
/// dimension alone; entries left 0 are never read):
/// - at the element dimension both fields are the cavity's rounded weight;
/// - below it, `adds[d]` counts closure entities of dimension d not yet
///   shared with q, for every dimension the decision reads;
/// - `leaves[d]` counts closure entities with no local element outside the
///   selection, and only for d == the balanced dimension: it is the one
///   field that needs the upward adjacency walk.
struct CavityEffect {
  std::array<int, 4> adds{};    ///< entities new to q, per dim
  std::array<int, 4> leaves{};  ///< entities leaving p, per dim
};

/// Element weight under the application-defined criterion (1 when no tag).
double elementWeight(const core::Mesh& mesh, core::Mesh::Tag tag, Ent e) {
  if (tag == nullptr || !tag->has(e)) return 1.0;
  return mesh.tags().getScalar<double>(tag, e);
}

/// `reads[d]` is true for the balanced dimension `dim` and every protected
/// dimension: the only entries of the effect the decision looks at.
CavityEffect cavityEffect(const dist::Part& p, const Cavity& cav, PartId q,
                          int elem_dim, int dim,
                          const std::array<bool, 4>& reads,
                          const common::FlatSet<Ent, EntHash>& selected,
                          core::Mesh::Tag weight_tag) {
  CavityEffect fx;
  double w = 0.0;
  for (Ent e : cav) w += elementWeight(p.mesh(), weight_tag, e);
  fx.adds[static_cast<std::size_t>(elem_dim)] = static_cast<int>(w + 0.5);
  fx.leaves[static_cast<std::size_t>(elem_dim)] = static_cast<int>(w + 0.5);
  const auto& mesh = p.mesh();
  std::array<Ent, core::kMaxDown> buf{};
  std::vector<Ent> closure;
  core::AdjVec adj;
  for (int d = 0; d < elem_dim; ++d) {
    if (!reads[static_cast<std::size_t>(d)]) continue;
    closure.clear();
    for (Ent elem : cav) {
      const int n = mesh.downward(elem, d, buf.data());
      closure.insert(closure.end(), buf.begin(), buf.begin() + n);
    }
    std::sort(closure.begin(), closure.end());
    closure.erase(std::unique(closure.begin(), closure.end()), closure.end());
    for (Ent c : closure) {
      if (!sharedWith(p, c, q)) fx.adds[static_cast<std::size_t>(d)] += 1;
      if (d != dim) continue;
      bool all_leaving = true;
      const int na = mesh.adjacentInto(c, elem_dim, adj);
      for (int k = 0; k < na && all_leaving; ++k) {
        const Ent up_elem = adj[static_cast<std::size_t>(k)];
        if (p.isGhost(up_elem)) continue;
        all_leaving = std::find(cav.begin(), cav.end(), up_elem) != cav.end() ||
                      selected.count(up_elem) > 0;
      }
      if (all_leaving) fx.leaves[static_cast<std::size_t>(d)] += 1;
    }
  }
  return fx;
}

}  // namespace

ImproveReport improve(dist::PartedMesh& pm, const Priority& priority,
                      const ImproveOptions& opts) {
  pcu::trace::Scope trace_scope("parma:improve");
  ImproveReport report;
  const int elem_dim = pm.dim();
  const int nparts = pm.parts();

  // Reference means, fixed at entry. The paper measures imbalance against
  // the input (T0) partition's means; converging against a drifting mean
  // would silently accept boundary growth.
  std::array<double, 4> ref_mean{};
  {
    const auto entry = allBalances(pm);
    for (int d = 0; d <= 3; ++d)
      ref_mean[static_cast<std::size_t>(d)] =
          entry[static_cast<std::size_t>(d)].mean;
  }
  auto meanOf = [&](int d, const std::array<Balance, 4>& balances) {
    const double now = balances[static_cast<std::size_t>(d)].mean;
    const double ref = ref_mean[static_cast<std::size_t>(d)];
    return ref > 0.0 ? std::min(now, ref) : now;
  };

  for (std::size_t li = 0; li < priority.levels.size(); ++li) {
    // Dimensions whose balance this level must not harm: all higher levels
    // plus the other members of this level.
    for (int dim : priority.levels[li]) {
      static const char* kDimScope[4] = {
          "parma:improve-vtx", "parma:improve-edge", "parma:improve-face",
          "parma:improve-rgn"};
      pcu::trace::Scope dim_scope(kDimScope[static_cast<std::size_t>(dim)]);
      std::vector<int> harm = priority.higherThan(li);
      for (int other : priority.levels[li])
        if (other != dim) harm.push_back(other);
      std::array<bool, 4> reads{};
      reads[static_cast<std::size_t>(dim)] = true;
      for (int dh : harm) reads[static_cast<std::size_t>(dh)] = true;

      LevelReport lr;
      lr.dim = dim;
      auto imbNow = [&]() {
        auto bb = allBalances(pm);
        if (dim == elem_dim && !opts.element_weight_tag.empty())
          bb[static_cast<std::size_t>(elem_dim)] =
              weightedElementBalance(pm, opts.element_weight_tag);
        return static_cast<double>(bb[static_cast<std::size_t>(dim)].peak) /
               meanOf(dim, bb);
      };
      lr.initial_imbalance = imbNow();
      double prev_imbalance = lr.initial_imbalance;
      int stalls = 0;

      for (int iter = 0; iter < opts.max_iterations; ++iter) {
        auto balances = allBalances(pm);
        if (dim == elem_dim && !opts.element_weight_tag.empty())
          balances[static_cast<std::size_t>(elem_dim)] =
              weightedElementBalance(pm, opts.element_weight_tag);
        const Balance& b = balances[static_cast<std::size_t>(dim)];
        const double mean_d = meanOf(dim, balances);
        if (static_cast<double>(b.peak) / mean_d <= 1.0 + opts.tolerance)
          break;

        dist::MigrationPlan plan(static_cast<std::size_t>(nparts));
        // Projected count changes at destinations during this round.
        std::vector<std::array<int, 4>> planned(
            static_cast<std::size_t>(nparts), std::array<int, 4>{});
        std::size_t planned_moves = 0;

        for (PartId p = 0; p < nparts; ++p) {
          const double count_p =
              static_cast<double>(b.per_part[static_cast<std::size_t>(p)]);
          if (count_p <= (1.0 + opts.tolerance) * mean_d) continue;  // light
          const double surplus = count_p - mean_d;
          const int budget =
              std::max(1, static_cast<int>(std::ceil(surplus * opts.damping)));

          // Candidate parts (paper III-A-1): lightly loaded neighbours,
          // absolutely (below average) or relatively (below this part),
          // in the balanced dimension and in all lesser-priority ones.
          std::vector<PartId> cands;
          for (PartId q : pm.part(p).neighborParts(0)) {
            auto light = [&](int d) {
              const auto& bd = balances[static_cast<std::size_t>(d)];
              const double cq = static_cast<double>(
                  bd.per_part[static_cast<std::size_t>(q)]);
              const double cp = static_cast<double>(
                  bd.per_part[static_cast<std::size_t>(p)]);
              if (cq < meanOf(d, balances)) return true;  // absolute
              return opts.relative_candidates && cq < cp;  // relative
            };
            bool ok = light(dim);
            for (int dl : priority.lowerThan(li)) ok = ok && light(dl);
            if (ok) cands.push_back(q);
          }
          if (cands.empty()) continue;
          // Tie-break by part id so candidate order never depends on the
          // (layout-sensitive) neighborParts iteration order.
          std::sort(cands.begin(), cands.end(), [&](PartId x, PartId y) {
            const auto cx = b.per_part[static_cast<std::size_t>(x)];
            const auto cy = b.per_part[static_cast<std::size_t>(y)];
            if (cx != cy) return cx < cy;
            return x < y;
          });

          const dist::Part& part = pm.part(p);
          const core::Mesh::Tag weight_tag =
              opts.element_weight_tag.empty()
                  ? nullptr
                  : part.mesh().tags().find(opts.element_weight_tag);
          BoundaryIndex boundary(part, nparts);
          common::FlatSet<Ent, EntHash> selected;
          int moved = 0;
          for (PartId q : cands) {
            if (moved >= budget) break;
            const auto cavities =
                selectCavities(part, boundary, q, dim, elem_dim, opts);
            for (const Cavity& cav : cavities) {
              if (moved >= budget) break;
              bool overlap = false;
              for (Ent e : cav)
                if (selected.count(e)) overlap = true;
              if (overlap) continue;
              const CavityEffect fx = cavityEffect(part, cav, q, elem_dim,
                                                   dim, reads, selected,
                                                   weight_tag);
              auto projectedAt = [&](int d) {
                const auto& bd = balances[static_cast<std::size_t>(d)];
                return static_cast<double>(
                           bd.per_part[static_cast<std::size_t>(q)]) +
                       planned[static_cast<std::size_t>(q)]
                              [static_cast<std::size_t>(d)] +
                       fx.adds[static_cast<std::size_t>(d)];
              };
              // Balanced type: diffusion must flow downhill — the
              // destination stays strictly below the source's load.
              bool ok =
                  projectedAt(dim) <
                  static_cast<double>(
                      b.per_part[static_cast<std::size_t>(p)]) -
                      moved;
              // Protected (higher/equal priority) types: the move must not
              // raise their global peak (that is what "no harm" means).
              for (int dh : harm) {
                const auto& bd = balances[static_cast<std::size_t>(dh)];
                ok = ok && projectedAt(dh) <=
                               std::max((1.0 + opts.tolerance) *
                                            meanOf(dh, balances),
                                        static_cast<double>(bd.peak));
              }
              if (!ok) continue;
              for (Ent e : cav) {
                plan[static_cast<std::size_t>(p)][e] = q;
                selected.insert(e);
              }
              for (int d = 0; d <= 3; ++d)
                planned[static_cast<std::size_t>(q)]
                       [static_cast<std::size_t>(d)] +=
                    fx.adds[static_cast<std::size_t>(d)];
              moved += fx.leaves[static_cast<std::size_t>(dim)];
              planned_moves += cav.size();
            }
          }
        }

        if (planned_moves == 0) break;  // no admissible move anywhere
        pm.migrate(plan);
        lr.iterations = iter + 1;
        lr.elements_migrated += planned_moves;

        const double now = imbNow();
        if (now >= prev_imbalance - 1e-12) {
          if (++stalls >= opts.max_stalls) break;
        } else {
          stalls = 0;
        }
        prev_imbalance = now;
      }

      lr.final_imbalance = imbNow();
      lr.converged = lr.final_imbalance <= 1.0 + opts.tolerance;
      report.levels.push_back(lr);
    }
  }
  return report;
}

ImproveReport improve(dist::PartedMesh& pm, const std::string& priority,
                      const ImproveOptions& opts) {
  return improve(pm, parsePriority(priority), opts);
}

}  // namespace parma
