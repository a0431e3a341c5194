#ifndef PUMI_DIST_KEYMAPS_IMPL_HPP
#define PUMI_DIST_KEYMAPS_IMPL_HPP

/// \file keymaps_impl.hpp
/// \brief Shared internals of migration and ghosting: KeyMaps, the per-part
/// canonical-key -> local-handle tables of one operation, and Records, the
/// bounds-checked decoder of their packed bodies. Internal to dist.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/flatmap.hpp"
#include "core/tagio.hpp"
#include "dist/partedmesh.hpp"
#include "gmi/model.hpp"
#include "pcu/error.hpp"

namespace dist {

/// Per part: canonical (owner part, owner handle) key -> local handle of
/// every entity the current operation created there. Nothing else is
/// entered: a sender names an entity the receiver already holds by the
/// receiver's own handle, read off its copy links (PartedMesh::packCreation).
using KeyMap = common::FlatMap<GKey, Ent, GKeyHash>;
using KeyMaps = std::vector<KeyMap>;

/// A creation record (PartedMesh::packCreation) read up to its tags.
struct Creation {
  GKey key;  ///< owner part and owner handle
  core::Topo topo{};
  gmi::Entity* cls = nullptr;
  common::Vec3 x{};  ///< vertices only
  std::uint32_t nv = 0;
  std::array<GKey, 8> vkeys{};
};

/// Bounds-checked decoder of one packed body received by part `to` from
/// part `from`. Every read checks the bytes left, so a malformed body is a
/// pcu::Error(kValidation) naming the channel (rank = receiver, peer =
/// sender), never an InBuffer assert.
class Records {
 public:
  /// `what` names the operation and phase in error messages.
  Records(PartId to, PartId from, std::size_t nparts, const char* what,
          pcu::InBuffer& body)
      : to_(to), from_(from), nparts_(nparts), what_(what), body_(body) {}

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
  /// A key (owner part, handle); its part must be in range.
  GKey key() {
    GKey k;
    k.part = part();
    k.ent = Ent::unpack(take<std::uint64_t>());
    return k;
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
  /// A creation record of dimension lo..hi, checked whole: its tag
  /// section is validated but left to build() or skipTags().
  Creation creation(int lo, int hi, const gmi::Model* model) {
    Creation c;
    c.key = key();
    const auto bits = take<std::uint8_t>();
    c.topo = static_cast<core::Topo>(bits);
    if (bits >= core::kTopoCount || core::topoDim(c.topo) < lo ||
        core::topoDim(c.topo) > hi)
      reject("topology " + std::to_string(bits) + " outside dimensions " +
             std::to_string(lo) + ".." + std::to_string(hi));
    const auto cls_dim = take<std::int32_t>();
    const auto cls_tag = take<std::int32_t>();
    c.cls = cls_dim >= 0 ? model->find(cls_dim, cls_tag) : nullptr;
    if (c.topo == core::Topo::Vertex) {
      c.x = take<common::Vec3>();
    } else {
      c.nv = take<std::uint32_t>();
      if (static_cast<std::int64_t>(c.nv) != core::topoVertexCount(c.topo))
        reject(std::to_string(c.nv) + " vertices for a " +
               core::topoName(c.topo));
      for (std::uint32_t k = 0; k < c.nv; ++k) c.vkeys[k] = key();
    }
    if (!core::tagsExtent(body_.cursor(), body_.remaining()))
      reject("truncated or malformed tag section");
    return c;
  }
  /// Create `c` in the receiver's `mesh`, then apply its tags. A vertex
  /// key names a live local vertex by its handle or, by its owner key, a
  /// vertex in `created` (this operation's creations on the receiver).
  Ent build(core::Mesh& mesh, const KeyMap& created, const Creation& c) {
    std::array<Ent, 8> lv{};
    for (std::uint32_t k = 0; k < c.nv; ++k) {
      const GKey& vk = c.vkeys[k];
      Ent v = vk.ent;
      if (vk.part != to_) {
        const auto it = created.find(vk);
        if (it == created.end()) rejectVertex(vk);
        v = it->second;
      }
      if (v.topo() != core::Topo::Vertex || !mesh.alive(v)) rejectVertex(vk);
      lv[k] = v;
    }
    const Ent local = c.topo == core::Topo::Vertex
                          ? mesh.createVertex(c.x, c.cls)
                          : mesh.buildElement(c.topo, {lv.data(), c.nv}, c.cls);
    core::unpackTags(mesh, local, body_);
    return local;
  }
  void skipTags() { core::skipTags(body_); }

  [[noreturn]] void reject(const std::string& why) const {
    throw pcu::Error(pcu::ErrorCode::kValidation, static_cast<int>(to_),
                     static_cast<int>(from_), kNetChannelTag,
                     std::string(what_) + ": " + why + " (from part " +
                         std::to_string(from_) + " to part " +
                         std::to_string(to_) + ")");
  }

 private:
  [[noreturn]] void rejectVertex(const GKey& vk) const {
    reject("vertex key (part " + std::to_string(vk.part) + ", handle " +
           std::to_string(vk.ent.packed()) + ") names no vertex here");
  }

  PartId to_, from_;
  std::size_t nparts_;
  const char* what_;
  pcu::InBuffer& body_;
};

}  // namespace dist

#endif  // PUMI_DIST_KEYMAPS_IMPL_HPP
