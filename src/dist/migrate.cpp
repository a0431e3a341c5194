/// \file migrate.cpp
/// \brief Mesh migration (paper II-C): move elements between parts while
/// maintaining the full distributed representation.
///
/// The algorithm follows FMDB's residence-based migration, expressed as
/// bulk-synchronous message phases over dist::Network:
///
///   A. Every part computes, for each participating entity (shared, or in
///      the closure of a moving element), the destinations of its adjacent
///      elements, and reports them to the entity's owner. The union at the
///      owner is the entity's *new residence* (paper II-B).
///   B. (per dimension, ascending) Owners send creation payloads — topology
///      by vertex keys, coordinates, classification, tags — to residence
///      parts lacking a copy; receivers create entities and reply with the
///      new local handles.
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
#include "dist/tagio.hpp"
#include "gmi/model.hpp"
#include "pcu/error.hpp"
#include "pcu/trace.hpp"

namespace dist {

namespace {

void packKey(pcu::OutBuffer& b, const GKey& k) {
  b.pack<std::int32_t>(k.part);
  b.pack<std::uint64_t>(k.ent.packed());
}

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

/// Bounds-checked decoder of one packed body received by part `to` from
/// part `from`. Every read checks the bytes left, so a malformed body is a
/// pcu::Error(kValidation) naming the channel, never an InBuffer assert.
class Records {
 public:
  Records(PartId to, PartId from, std::size_t nparts, const char* phase,
          pcu::InBuffer& body)
      : to_(to), from_(from), nparts_(nparts), phase_(phase), body_(body) {}

  /// Reject the body up front unless it holds whole `size`-byte records.
  void requireWhole(std::size_t size) const {
    if (body_.remaining() % size != 0)
      reject(std::to_string(body_.remaining() % size) +
             " trailing bytes after the last " + std::to_string(size) +
             "-byte record");
  }
  [[nodiscard]] bool more() const { return !body_.done(); }

  template <typename T>
  T take() {
    if (body_.remaining() < sizeof(T)) reject("short record");
    return body_.unpack<T>();
  }
  /// A handle that must name a live entity of `mesh`.
  Ent live(const core::Mesh& mesh) {
    const auto bits = take<std::uint64_t>();
    const Ent e = Ent::unpack(bits);
    if ((bits >> 32) >= static_cast<std::uint64_t>(core::kTopoCount) ||
        !mesh.alive(e))
      reject("entity handle " + std::to_string(bits) +
             " is not alive on the receiver");
    return e;
  }
  PartId part() {
    const auto q = take<std::int32_t>();
    if (q < 0 || static_cast<std::size_t>(q) >= nparts_)
      reject("part " + std::to_string(q) + " out of range");
    return q;
  }
  /// A count of at most `limit` items of `item_bytes` each, all present.
  std::size_t count(std::uint64_t n, std::uint64_t limit,
                    std::size_t item_bytes) const {
    if (n > limit || n * item_bytes > body_.remaining())
      reject("record announces " + std::to_string(n) + " items (limit " +
             std::to_string(limit) + ", " +
             std::to_string(body_.remaining()) + " bytes left)");
    return static_cast<std::size_t>(n);
  }
  /// Check that a packTags section follows, then apply it to `e`.
  void checkTags() const {
    if (!core::tagsExtent(body_.cursor(), body_.remaining()))
      reject("truncated or malformed tag section");
  }
  void tags(core::Mesh& mesh, Ent e) { unpackTags(mesh, e, body_); }

  [[noreturn]] void reject(const std::string& what) const {
    throw pcu::Error(pcu::ErrorCode::kValidation, static_cast<int>(to_),
                     static_cast<int>(from_), kNetChannelTag,
                     std::string("migrate ") + phase_ + ": " + what +
                         " (from part " + std::to_string(from_) +
                         " to part " + std::to_string(to_) + ")");
  }

 private:
  PartId to_, from_;
  std::size_t nparts_;
  const char* phase_;
  pcu::InBuffer& body_;
};

void addUnique(std::vector<PartId>& v, PartId p) {
  if (std::find(v.begin(), v.end(), p) == v.end()) v.push_back(p);
}

/// Owner-side bookkeeping for one participating entity.
struct Record {
  std::vector<PartId> new_res;   // accumulating union of contributions
  std::vector<Copy> new_copies;  // copies created this migration
};

}  // namespace

void PartedMesh::buildKeyMaps(KeyMaps& maps) const {
  maps.by_key.assign(parts_.size(), {});
  for (const auto& pp : parts_) {
    auto& map = maps.by_key[static_cast<std::size_t>(pp->id())];
    // Count first so the rebuild is a single allocation, not a rehash chain.
    std::size_t n = 0;
    for (const auto& [e, r] : pp->remotes_)
      if (r.owner != pp->id()) ++n;
    map.reserve(n);
    for (const auto& [e, r] : pp->remotes_) {
      if (r.owner == pp->id()) continue;
      map.emplace(keyOf(*pp, e), e);
    }
  }
}

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
  KeyMaps keys;
  buildKeyMaps(keys);

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
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    std::array<Ent, core::kMaxDown> buf{};
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
  auto joinParticipants = [&](const char* phase) {
    net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      Records in(to, from, nparts, phase, body);
      in.requireWhole(sizeof(std::uint64_t));
      const core::Mesh& mesh = parts_[static_cast<std::size_t>(to)]->mesh();
      auto& joined = participating[static_cast<std::size_t>(to)];
      while (in.more()) joined.insert(in.live(mesh));
    });
  };
  joinParticipants("A0 notify");
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
  joinParticipants("A0 pull");
  pcu::trace::end("migrate:A0-participants");

  // --- Phase A: local residence contributions -> owners -------------------
  pcu::trace::begin("migrate:A-residence");
  core::AdjVec adj;
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    common::FlatMap<Ent, std::vector<PartId>, EntHash> local_res;
    local_res.reserve(participating[pi].size());
    for (Ent e : participating[pi]) local_res.emplace(e, std::vector<PartId>{});
    // Destinations of adjacent elements.
    for (auto& [e, res] : local_res) {
      const int na = p.mesh().adjacentInto(e, dim, adj);
      for (int k = 0; k < na; ++k)
        addUnique(res, destOf(p.id(), adj[static_cast<std::size_t>(k)]));
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
    Records in(to, from, nparts, "A residence", body);
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
  std::array<Ent, core::kMaxDown> vbuf{};
  auto packCreation = [&](Part& p, Ent e, pcu::OutBuffer& b) {
    packKey(b, keyOf(p, e));
    b.pack<std::uint8_t>(static_cast<std::uint8_t>(e.topo()));
    gmi::Entity* cls = p.mesh().classification(e);
    b.pack<std::int32_t>(cls ? cls->dim() : -1);
    b.pack<std::int32_t>(cls ? cls->tag() : -1);
    if (e.topo() == core::Topo::Vertex) {
      b.pack(p.mesh().point(e));
    } else {
      const int nv = p.mesh().downward(e, 0, vbuf.data());
      b.pack<std::uint32_t>(static_cast<std::uint32_t>(nv));
      for (int k = 0; k < nv; ++k)
        packKey(b, keyOf(p, vbuf[static_cast<std::size_t>(k)]));
    }
    packTags(p.mesh(), e, b);
  };
  // Creation record: owner key, topology, classification, then the
  // coordinates or vertex keys, then the tags. The whole record is checked
  // before the entity is created.
  auto createFromPayload = [&](PartId to, PartId from, int d, Records& in) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    const auto& by_key = keys.by_key[static_cast<std::size_t>(to)];
    const auto readKey = [&] {
      GKey k;
      k.part = in.part();
      k.ent = Ent::unpack(in.take<std::uint64_t>());
      return k;
    };
    const GKey key = readKey();
    if (key.part != from)
      in.reject("creation key names owner part " + std::to_string(key.part));
    const auto topo_bits = in.take<std::uint8_t>();
    const auto topo = static_cast<core::Topo>(topo_bits);
    if (topo_bits >= core::kTopoCount || core::topoDim(topo) != d)
      in.reject("topology " + std::to_string(topo_bits) +
                " in the dimension " + std::to_string(d) + " phase");
    const auto cls_dim = in.take<std::int32_t>();
    const auto cls_tag = in.take<std::int32_t>();
    gmi::Entity* cls =
        cls_dim >= 0 ? model_->find(cls_dim, cls_tag) : nullptr;
    common::Vec3 x{};
    std::array<Ent, 8> lv{};
    std::uint32_t nv = 0;
    if (topo == core::Topo::Vertex) {
      x = in.take<common::Vec3>();
    } else {
      nv = in.take<std::uint32_t>();
      if (nv > lv.size() ||
          static_cast<int>(nv) != core::topoVertexCount(topo))
        in.reject(std::to_string(nv) + " vertices for a " +
                  core::topoName(topo));
      for (std::uint32_t k = 0; k < nv; ++k) {
        const GKey vk = readKey();
        if (vk.part == to) {
          if (vk.ent.topo() != core::Topo::Vertex || !p.mesh().alive(vk.ent))
            in.reject("vertex key names no live local vertex");
          lv[k] = vk.ent;
        } else {
          const auto it = by_key.find(vk);
          if (it == by_key.end())
            in.reject("vertex key of part " + std::to_string(vk.part) +
                      " unknown to the receiver");
          lv[k] = it->second;
        }
      }
    }
    in.checkTags();
    const Ent local = topo == core::Topo::Vertex
                          ? p.mesh().createVertex(x, cls)
                          : p.mesh().buildElement(topo, {lv.data(), nv}, cls);
    in.tags(p.mesh(), local);
    keys.by_key[static_cast<std::size_t>(to)][key] = local;
    return std::pair{key, local};
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
              packCreation(p, e, out[t]);
        }
      } else {
        for (const auto& [elem, dest] : moving[pi])
          packCreation(p, elem, out[dest]);
      }
      out.post(net_, p.id());
    }
    // Deliver creations; receivers reply to the owner with their new
    // handles, one (owner handle, new handle) record per creation.
    net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      Records in(to, from, nparts, "B create", body);
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
      Records in(to, from, nparts, "B reply", body);
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
    Records in(to, from, nparts, "C finalize", body);
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
