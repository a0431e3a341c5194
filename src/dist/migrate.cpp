/// \file migrate.cpp
/// \brief Mesh migration (paper II-C): move elements between parts while
/// maintaining the full distributed representation.
///
/// The algorithm follows FMDB's residence-based migration, expressed as
/// bulk-synchronous message phases over dist::Network:
///
///   A. Every part computes, for each participating entity (shared, or in
///      the closure of a moving element), the parts its adjacent elements
///      will be on, and reports them to the entity's owner. The union at
///      the owner is the entity's *new residence* (paper II-B). The walk
///      costs what moves: each moving element adds its destination to its
///      closure, and the part itself is added when an early-exit upward
///      walk finds one adjacent element that stays.
///   B. (per dimension, ascending) Owners send creation payloads — topology
///      by vertex keys, coordinates, classification, tags — to residence
///      parts lacking a copy; receivers create entities and reply with the
///      new local handles. A vertex key is a handle on the receiver when a
///      copy exists there (read off the sender's copy links), else the
///      owner key of an entity created earlier in this operation; no
///      part-wide key map is built.
///   C. Owners broadcast the final copy lists and the new owning part to
///      every residence part; parts dropped from the residence receive a
///      release message instead.
///   D. Each part deletes moved-out elements, then released entities in
///      descending dimension order (at which point nothing bounds them).
///
/// Protocol records travel packed: in every phase each sender appends its
/// records for part q to one body in the order its loop visits them and
/// posts one body per (from, to) pair after that loop; a receiver decodes a
/// body's records in order. Entity insertions, handle creation and the
/// physical message per channel are therefore exactly those of one message
/// per record. B-phase handle replies go back to the sender of the creation
/// body, which is always the owner named in the record's key. Bodies are
/// untrusted: every decoder consumes whole records only and rejects a short
/// or trailing record, a dead handle or an out-of-range field with
/// pcu::Error(kValidation) naming the receiving part (rank) and the sender
/// (peer).

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/flatmap.hpp"
#include "dist/keymaps_impl.hpp"
#include "dist/partedmesh.hpp"
#include "pcu/error.hpp"
#include "pcu/trace.hpp"

namespace dist {

namespace {

/// One packed body per destination part for the sender whose loop is
/// running. post() sends every non-empty body and leaves all of them empty
/// for the next sender.
class PeerBodies {
 public:
  explicit PeerBodies(std::size_t nparts) : bodies_(nparts) {}
  pcu::OutBuffer& operator[](PartId to) {
    return bodies_[static_cast<std::size_t>(to)];
  }
  void post(Network& net, PartId from) {
    for (std::size_t to = 0; to < bodies_.size(); ++to)
      if (!bodies_[to].empty())
        net.send(from, static_cast<PartId>(to),
                 std::exchange(bodies_[to], pcu::OutBuffer{}));
  }

 private:
  std::vector<pcu::OutBuffer> bodies_;
};

void addUnique(std::vector<PartId>& v, PartId p) {
  if (std::find(v.begin(), v.end(), p) == v.end()) v.push_back(p);
}

/// True when some element (dimension `dim`) above `e` satisfies `pick`.
/// Walks the one-level up lists depth first and stops at the first hit.
template <typename Pick>
bool anyElementAbove(const core::Mesh& mesh, Ent e, int dim, const Pick& pick) {
  for (Ent u : mesh.up(e))
    if (core::topoDim(u.topo()) == dim ? pick(u)
                                       : anyElementAbove(mesh, u, dim, pick))
      return true;
  return false;
}

/// Owner-side bookkeeping for one participating entity.
struct Record {
  std::vector<PartId> new_res;   // accumulating union of contributions
  std::vector<Copy> new_copies;  // copies created this migration
};

}  // namespace

void PartedMesh::migrate(const MigrationPlan& plan) {
  const int dim = dim_;
  if (dim < 2) throw std::logic_error("migrate: mesh not distributed");
  if (plan.size() != parts_.size())
    throw std::invalid_argument("migrate: plan must cover every part");
  for (const auto& pp : parts_)
    if (pp->ghostCount() > 0)
      throw std::logic_error("migrate: unghost before migrating");

  // Validate plan contents up front, before any message or mutation: a bad
  // plan is a structured validation error naming the offending part and
  // entry, and the mesh is untouched.
  for (std::size_t pi = 0; pi < parts_.size(); ++pi) {
    const Part& p = *parts_[pi];
    for (const auto& [elem, dest] : plan[pi]) {
      const auto where = std::string(core::topoName(elem.topo())) + " #" +
                         std::to_string(elem.index());
      if (dest < 0 || dest >= static_cast<PartId>(parts_.size()))
        throw pcu::Error(pcu::ErrorCode::kValidation,
                         static_cast<int>(pi),
                         "migrate: destination part " + std::to_string(dest) +
                             " out of range [0, " +
                             std::to_string(parts_.size()) + ") for " + where);
      if (!p.mesh().alive(elem))
        throw pcu::Error(pcu::ErrorCode::kValidation, static_cast<int>(pi),
                         "migrate: plan names dead entity " + where);
      if (core::topoDim(elem.topo()) != dim)
        throw pcu::Error(
            pcu::ErrorCode::kValidation, static_cast<int>(pi),
            "migrate: plan entry " + where + " is not an element (dim " +
                std::to_string(core::topoDim(elem.topo())) + ", expected " +
                std::to_string(dim) + ")");
    }
  }

  runTransactional("migrate", [&] { migrateBody(plan); });
}

void PartedMesh::migrateBody(const MigrationPlan& plan) {
  const int dim = dim_;
  pcu::trace::Scope trace_scope("dist:migrate");
  const std::size_t nparts = parts_.size();
  KeyMaps keys(nparts);

  // Element loads before migration (for the LeastLoaded owner rule).
  std::vector<std::size_t> load(nparts, 0);
  for (std::size_t p = 0; p < nparts; ++p) load[p] = parts_[p]->elementCount();
  auto chooseOwner = [&](const std::vector<PartId>& res) -> PartId {
    assert(!res.empty());
    if (rule_ == OwnerRule::MinPartId)
      return *std::min_element(res.begin(), res.end());
    PartId best = res.front();
    for (PartId p : res)
      if (load[static_cast<std::size_t>(p)] <
          load[static_cast<std::size_t>(best)])
        best = p;
    return best;
  };

  // Per-part element destinations (defaulting to stay).
  auto destOf = [&](PartId p, Ent elem) -> PartId {
    const auto& m = plan[static_cast<std::size_t>(p)];
    auto it = m.find(elem);
    return it == m.end() ? p : it->second;
  };

  // --- Phase A0: find the participating entities ---------------------------
  pcu::trace::begin("migrate:A0-participants");
  // Only entities in the closure of a moving element ("touched"), plus
  // every copy of a touched shared entity, take part in the protocol. This
  // keeps migration cost proportional to the data moved, not to the part
  // boundary size.
  std::vector<common::FlatMap<Ent, Record, EntHash>> records(nparts);
  std::vector<std::vector<Ent>> to_delete(nparts);
  std::vector<std::vector<std::pair<Ent, PartId>>> moving(nparts);
  std::vector<common::FlatSet<Ent, EntHash>> participating(nparts);

  PeerBodies out(nparts);
  std::array<Ent, core::kMaxDown> buf{};
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    for (const auto& [elem, dest] : plan[pi]) {
      if (dest == p.id()) continue;  // contents validated by migrate()
      moving[pi].emplace_back(elem, dest);
      for (int d = 0; d < dim; ++d) {
        const int n = p.mesh().downward(elem, d, buf.data());
        for (int k = 0; k < n; ++k)
          participating[pi].insert(buf[static_cast<std::size_t>(k)]);
      }
    }
    // Notify owners of touched shared entities.
    for (Ent e : participating[pi]) {
      const GKey key = keyOf(p, e);
      if (key.part == p.id()) continue;
      out[key.part].pack<std::uint64_t>(key.ent.packed());
    }
    out.post(net_, p.id());
  }
  // Records: one live local handle each.
  auto joinParticipants = [&](const char* what) {
    net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      Records in(to, from, nparts, what, body);
      in.requireWhole(sizeof(std::uint64_t));
      const core::Mesh& mesh = parts_[static_cast<std::size_t>(to)]->mesh();
      auto& joined = participating[static_cast<std::size_t>(to)];
      while (in.more()) joined.insert(in.live(mesh));
    });
  };
  joinParticipants("migrate A0 notify");
  // Owners pull every copy of a touched shared entity into the protocol.
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    for (Ent e : participating[pi]) {
      const Remote* r = p.remote(e);
      if (r == nullptr || r->owner != p.id()) continue;
      for (const Copy& c : r->copies)
        out[c.part].pack<std::uint64_t>(c.ent.packed());
    }
    out.post(net_, p.id());
  }
  joinParticipants("migrate A0 pull");
  pcu::trace::end("migrate:A0-participants");

  // --- Phase A: local residence contributions -> owners -------------------
  pcu::trace::begin("migrate:A-residence");
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    const core::Mesh& mesh = p.mesh();
    common::FlatMap<Ent, std::vector<PartId>, EntHash> local_res;
    local_res.reserve(participating[pi].size());
    for (Ent e : participating[pi]) local_res.emplace(e, std::vector<PartId>{});
    // The closure of a moving element resides at its destination.
    for (const auto& [elem, dest] : moving[pi])
      for (int d = 0; d < dim; ++d) {
        const int n = mesh.downward(elem, d, buf.data());
        for (int k = 0; k < n; ++k)
          addUnique(local_res.find(buf[static_cast<std::size_t>(k)])->second,
                    dest);
      }
    // An entity stays here while any adjacent element does.
    const auto stays = [&](Ent elem) { return destOf(p.id(), elem) == p.id(); };
    for (auto& [e, res] : local_res) {
      if (anyElementAbove(mesh, e, dim, stays)) addUnique(res, p.id());
      assert(!res.empty() && "entity with no adjacent element");
      const GKey key = keyOf(p, e);
      if (key.part == p.id()) {
        auto& rec = records[pi][e];
        for (PartId d : res) addUnique(rec.new_res, d);
      } else {
        auto& b = out[key.part];
        b.pack<std::uint64_t>(key.ent.packed());
        b.packVector(res);
      }
    }
    out.post(net_, p.id());
  }
  // Records: (owner handle, destination parts).
  net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    Records in(to, from, nparts, "migrate A residence", body);
    const core::Mesh& mesh = parts_[static_cast<std::size_t>(to)]->mesh();
    std::vector<PartId> res;
    while (in.more()) {
      const Ent e = in.live(mesh);
      res.resize(in.count(in.take<std::uint64_t>(), nparts, sizeof(PartId)));
      if (res.empty()) in.reject("empty residence");
      for (PartId& d : res) d = in.part();
      auto& rec = records[static_cast<std::size_t>(to)][e];
      for (PartId d : res) addUnique(rec.new_res, d);
    }
  });
  for (auto& m : records)
    for (auto& [e, rec] : m) std::sort(rec.new_res.begin(), rec.new_res.end());
  pcu::trace::end("migrate:A-residence");

  // --- Phase B: creation payloads per dimension ----------------------------
  pcu::trace::begin("migrate:B-create");
  // A creation record is checked whole before the entity is created; the
  // receiver keys it for the vertex keys of later records.
  auto createFromPayload = [&](PartId to, PartId from, int d, Records& in) {
    const Creation c = in.creation(d, d, model_);
    if (c.key.part != from)
      in.reject("creation key names owner part " + std::to_string(c.key.part));
    KeyMap& created = keys[static_cast<std::size_t>(to)];
    const Ent local =
        in.build(parts_[static_cast<std::size_t>(to)]->mesh(), created, c);
    created[c.key] = local;
    return std::pair{c.key, local};
  };

  for (int d = 0; d <= dim; ++d) {
    // Post creation payloads.
    for (std::size_t pi = 0; pi < nparts; ++pi) {
      Part& p = *parts_[pi];
      if (d < dim) {
        for (auto& [e, rec] : records[pi]) {
          if (core::topoDim(e.topo()) != d) continue;
          const auto current = p.residence(e);
          for (PartId t : rec.new_res)
            if (std::find(current.begin(), current.end(), t) == current.end())
              packCreation(out[t], p, e, t);
        }
      } else {
        for (const auto& [elem, dest] : moving[pi])
          packCreation(out[dest], p, elem, dest);
      }
      out.post(net_, p.id());
    }
    // Deliver creations; receivers reply to the owner with their new
    // handles, one (owner handle, new handle) record per creation.
    net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      Records in(to, from, nparts, "migrate B create", body);
      pcu::OutBuffer reply;
      while (in.more()) {
        const auto [key, local] = createFromPayload(to, from, d, in);
        if (d < dim) {
          reply.pack<std::uint64_t>(key.ent.packed());
          reply.pack<std::uint64_t>(local.packed());
        }
      }
      if (!reply.empty()) net_.send(to, from, std::move(reply));
    });
    // Deliver handle replies to owners.
    net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      Records in(to, from, nparts, "migrate B reply", body);
      in.requireWhole(2 * sizeof(std::uint64_t));
      auto& owned = records[static_cast<std::size_t>(to)];
      while (in.more()) {
        const auto bits = in.take<std::uint64_t>();
        const Ent handle = Ent::unpack(in.take<std::uint64_t>());
        const auto it = owned.find(Ent::unpack(bits));
        if (it == owned.end())
          in.reject("handle reply for entity " + std::to_string(bits) +
                    " with no migration record");
        it->second.new_copies.push_back(Copy{from, handle});
      }
    });
  }
  pcu::trace::end("migrate:B-create");

  // --- Phase C: finalize copies & ownership --------------------------------
  pcu::trace::begin("migrate:C-finalize");
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    for (auto& [e, rec] : records[pi]) {
      // All copies: pre-existing (self + remotes) plus newly created.
      std::vector<Copy> all{Copy{p.id(), e}};
      if (const Remote* r = p.remote(e))
        all.insert(all.end(), r->copies.begin(), r->copies.end());
      all.insert(all.end(), rec.new_copies.begin(), rec.new_copies.end());
      // Filter to the new residence and sort by part.
      std::vector<Copy> final_copies;
      for (const Copy& c : all)
        if (std::find(rec.new_res.begin(), rec.new_res.end(), c.part) !=
            rec.new_res.end())
          final_copies.push_back(c);
      std::sort(final_copies.begin(), final_copies.end(),
                [](const Copy& a, const Copy& b) { return a.part < b.part; });
      const PartId new_owner = chooseOwner(rec.new_res);
      // Retained residence parts get the final record.
      for (const Copy& c : final_copies) {
        auto& b = out[c.part];
        b.pack<std::uint8_t>(1);  // kind: finalize
        b.pack<std::uint64_t>(c.ent.packed());
        b.pack<std::int32_t>(new_owner);
        b.pack<std::uint32_t>(static_cast<std::uint32_t>(final_copies.size()));
        for (const Copy& o : final_copies) {
          b.pack<std::int32_t>(o.part);
          b.pack<std::uint64_t>(o.ent.packed());
        }
      }
      // Dropped parts get a release.
      for (const Copy& c : all) {
        if (std::find(rec.new_res.begin(), rec.new_res.end(), c.part) !=
            rec.new_res.end())
          continue;
        auto& b = out[c.part];
        b.pack<std::uint8_t>(0);  // kind: release
        b.pack<std::uint64_t>(c.ent.packed());
      }
    }
    out.post(net_, p.id());
  }
  // Records: a release (kind 0, local handle) or a finalize (kind 1, local
  // handle, owner, copy list).
  net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    Records in(to, from, nparts, "migrate C finalize", body);
    Part& p = *parts_[static_cast<std::size_t>(to)];
    while (in.more()) {
      const auto kind = in.take<std::uint8_t>();
      if (kind > 1) in.reject("record kind " + std::to_string(kind));
      const Ent local = in.live(p.mesh());
      if (kind == 0) {
        p.remotes_.erase(local);
        to_delete[static_cast<std::size_t>(to)].push_back(local);
        continue;
      }
      Remote r;
      r.owner = in.part();
      const std::size_t n =
          in.count(in.take<std::uint32_t>(), nparts,
                   sizeof(std::int32_t) + sizeof(std::uint64_t));
      for (std::size_t i = 0; i < n; ++i) {
        Copy c;
        c.part = in.part();
        c.ent = Ent::unpack(in.take<std::uint64_t>());
        if (c.part != to) r.copies.push_back(c);
      }
      if (r.copies.empty())
        p.remotes_.erase(local);  // became interior
      else
        p.remotes_[local] = std::move(r);
    }
  });
  pcu::trace::end("migrate:C-finalize");

  // --- Phase D: deletion ----------------------------------------------------
  pcu::trace::Scope delete_scope("migrate:D-delete");
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    for (const auto& [elem, dest] : moving[pi]) {
      (void)dest;
      p.mesh().destroy(elem);
    }
    auto& dels = to_delete[pi];
    std::sort(dels.begin(), dels.end(), [](Ent a, Ent b) {
      return core::topoDim(a.topo()) > core::topoDim(b.topo());
    });
    for (Ent e : dels) p.mesh().destroy(e);
  }
}

}  // namespace dist
