/// \file ghost.cpp
/// \brief Ghosting (paper II-C): localize off-part entity copies so
/// computations near part boundaries avoid communication.
///
/// A ghost is a read-only, duplicated, off-part internal entity copy,
/// including tag data. Layers grow from the part boundary: layer 1 is every
/// remote element adjacent (through shared vertices) to the boundary;
/// layer k+1 adds elements adjacent to layer-k vertices. The sending part
/// computes all requested layers locally, then ships each neighbour one
/// self-contained closure payload; receivers deduplicate shared closure
/// entities by their canonical (owner part, owner handle) key. A closure
/// element names a vertex the neighbour already holds by the neighbour's
/// handle, read off the sender's copy links, and any other vertex by its
/// owner key, which then names a ghost created by this operation.

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "common/flatmap.hpp"
#include "core/tagio.hpp"
#include "dist/keymaps_impl.hpp"
#include "dist/partedmesh.hpp"
#include "pcu/trace.hpp"

namespace dist {

void PartedMesh::ghostLayers(int layers) {
  if (layers < 1) throw std::invalid_argument("ghostLayers: layers >= 1");
  for (const auto& pp : parts_)
    if (pp->ghostCount() > 0)
      throw std::logic_error("ghostLayers: already ghosted; unghost first");
  if (dim_ < 2) throw std::logic_error("ghostLayers: mesh not distributed");
  runTransactional("ghostLayers", [&] { ghostLayersBody(layers); });
}

void PartedMesh::ghostLayersBody(int layers) {
  const int dim = dim_;
  pcu::trace::Scope trace_scope("dist:ghostLayers");
  const std::size_t nparts = parts_.size();
  KeyMaps keys(nparts);
  std::array<Ent, core::kMaxDown> buf{};

  // Post one closure payload per (part, neighbour) pair.
  for (const auto& pp : parts_) {
    Part& p = *pp;
    // Boundary vertices shared with each neighbour.
    common::FlatMap<PartId, std::vector<Ent>> seeds;
    for (const auto& [e, r] : p.remotes_) {
      if (e.topo() != core::Topo::Vertex) continue;
      for (const Copy& c : r.copies) seeds[c.part].push_back(e);
    }
    core::AdjVec adj;
    for (auto& [q, verts] : seeds) {
      // Grow `layers` element layers from the seed vertices.
      common::FlatSet<Ent, EntHash> elems;
      common::FlatSet<Ent, EntHash> known_verts(verts.begin(), verts.end());
      std::vector<Ent> frontier(verts.begin(), verts.end());
      for (int layer = 0; layer < layers && !frontier.empty(); ++layer) {
        std::vector<Ent> new_elems;
        for (Ent v : frontier) {
          const int na = p.mesh().adjacentInto(v, dim, adj);
          for (int k = 0; k < na; ++k) {
            const Ent elem = adj[static_cast<std::size_t>(k)];
            if (elems.insert(elem).second) new_elems.push_back(elem);
          }
        }
        frontier.clear();
        for (Ent elem : new_elems) {
          const int nv = p.mesh().downward(elem, 0, buf.data());
          for (int k = 0; k < nv; ++k)
            if (known_verts.insert(buf[static_cast<std::size_t>(k)]).second)
              frontier.push_back(buf[static_cast<std::size_t>(k)]);
        }
      }
      if (elems.empty()) continue;
      // Closure of the element set, dimension-ascending, skipping entities
      // the neighbour already holds as real copies.
      auto held_by_q = [&](Ent e) {
        const Remote* r = p.remote(e);
        if (r == nullptr) return false;
        return std::any_of(r->copies.begin(), r->copies.end(),
                           [&](const Copy& c) { return c.part == q; });
      };
      std::vector<std::vector<Ent>> closure(static_cast<std::size_t>(dim) + 1);
      common::FlatSet<Ent, EntHash> in_closure;
      for (Ent elem : elems) {
        for (int d = 0; d < dim; ++d) {
          const int n = p.mesh().downward(elem, d, buf.data());
          for (int k = 0; k < n; ++k) {
            const Ent e = buf[static_cast<std::size_t>(k)];
            if (held_by_q(e)) continue;
            if (in_closure.insert(e).second)
              closure[static_cast<std::size_t>(d)].push_back(e);
          }
        }
        closure[static_cast<std::size_t>(dim)].push_back(elem);
      }
      pcu::OutBuffer b;
      std::uint32_t total = 0;
      for (const auto& level : closure)
        total += static_cast<std::uint32_t>(level.size());
      b.pack(total);
      for (const auto& level : closure)
        for (Ent e : level) packCreation(b, p, e, q);
      net_.send(p.id(), q, std::move(b));
    }
  }

  // Receivers create ghosts (deduplicating by key) and notify owners. Each
  // closure record is checked whole before its ghost is created.
  net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    Records in(to, from, nparts, "ghostLayers closure", body);
    KeyMap& by_key = keys[static_cast<std::size_t>(to)];
    const auto total = in.take<std::uint32_t>();
    for (std::uint32_t i = 0; i < total; ++i) {
      const Creation c = in.creation(0, dim, model_);
      if (c.key.part == to || by_key.count(c.key) > 0) {
        in.skipTags();  // a duplicate of a real entity or an earlier ghost
        continue;
      }
      const Ent local = in.build(p.mesh(), by_key, c);
      by_key.emplace(c.key, local);
      p.ghost_source_.emplace(local, Copy{c.key.part, c.key.ent});
      pcu::OutBuffer reply;
      reply.pack<std::uint64_t>(c.key.ent.packed());
      reply.pack<std::uint64_t>(local.packed());
      net_.send(to, c.key.part, std::move(reply));
    }
    if (in.more()) in.reject("bytes after the last closure record");
  });

  // Owners record where their entities are ghosted (for tag sync).
  net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    Records in(to, from, nparts, "ghostLayers reply", body);
    in.requireWhole(2 * sizeof(std::uint64_t));
    while (in.more()) {
      const Ent real = in.live(p.mesh());
      p.ghosted_on_[real].push_back(
          Copy{from, Ent::unpack(in.take<std::uint64_t>())});
    }
  });
}

void PartedMesh::unghost() {
  pcu::trace::Scope trace_scope("dist:unghost");
  for (const auto& pp : parts_) {
    Part& p = *pp;
    std::vector<Ent> ghosts;
    ghosts.reserve(p.ghost_source_.size());
    for (const auto& [e, src] : p.ghost_source_) {
      (void)src;
      ghosts.push_back(e);
    }
    std::sort(ghosts.begin(), ghosts.end(), [](Ent a, Ent b) {
      if (core::topoDim(a.topo()) != core::topoDim(b.topo()))
        return core::topoDim(a.topo()) > core::topoDim(b.topo());
      return b < a;
    });
    for (Ent e : ghosts) p.mesh().destroy(e);
    p.ghost_source_.clear();
    p.ghosted_on_.clear();
  }
}

void PartedMesh::syncSharedTags(const std::string& only) {
  runTransactional("syncSharedTags", [&] { syncSharedTagsBody(only); });
}

void PartedMesh::syncSharedTagsBody(const std::string& only) {
  pcu::trace::Scope trace_scope("dist:syncSharedTags");
  for (const auto& pp : parts_) {
    Part& p = *pp;
    for (const auto& [e, r] : p.remotes_) {
      if (r.owner != p.id()) continue;
      for (const Copy& c : r.copies) {
        pcu::OutBuffer b;
        b.pack<std::uint64_t>(c.ent.packed());
        core::packTags(p.mesh(), e, b, only);
        net_.send(p.id(), c.part, std::move(b));
      }
    }
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    const Ent local = Ent::unpack(body.unpack<std::uint64_t>());
    core::unpackTags(p.mesh(), local, body);
  });
}

void PartedMesh::syncGhostTags() {
  runTransactional("syncGhostTags", [&] { syncGhostTagsBody(); });
}

void PartedMesh::syncGhostTagsBody() {
  pcu::trace::Scope trace_scope("dist:syncGhostTags");
  for (const auto& pp : parts_) {
    Part& p = *pp;
    for (const auto& [real, ghosts] : p.ghosted_on_) {
      for (const Copy& g : ghosts) {
        pcu::OutBuffer b;
        b.pack<std::uint64_t>(g.ent.packed());
        core::packTags(p.mesh(), real, b);
        net_.send(p.id(), g.part, std::move(b));
      }
    }
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    const Ent ghost = Ent::unpack(body.unpack<std::uint64_t>());
    core::unpackTags(p.mesh(), ghost, body);
  });
}

}  // namespace dist
