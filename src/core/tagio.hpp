#ifndef PUMI_CORE_TAGIO_HPP
#define PUMI_CORE_TAGIO_HPP

/// \file tagio.hpp (core)
/// \brief Serialization of mesh tag values for entity migration/ghosting.
///
/// Tags of element type int, long and double (any component count) travel
/// with their entities during migration and ghosting; other element types
/// are part-local and are not transported (documented limitation matching
/// the ITAPS basic tag types).

#include <cstddef>
#include <optional>

#include "core/mesh.hpp"
#include "pcu/buffer.hpp"

namespace core {

/// Append all transportable tag values attached to `e` in `mesh`. When
/// `only` is non-empty, restrict to the tag of that name.
void packTags(const core::Mesh& mesh, core::Ent e, pcu::OutBuffer& buf,
              const std::string& only = "");

/// Read tag values written by packTags and attach them to `e` in `mesh`,
/// creating same-named tags as needed.
void unpackTags(core::Mesh& mesh, core::Ent e, pcu::InBuffer& buf);

/// packTags then unpackTags of `tags` (from.tags().list()), with no buffer.
void copyTags(const core::Mesh& from, std::span<const core::Mesh::Tag> tags,
              core::Ent e, core::Mesh& to, core::Ent copy);

/// Advance past a packTags record without applying it.
void skipTags(pcu::InBuffer& buf);

/// Byte length of the packTags record at the start of the `size` bytes at
/// `data`, or std::nullopt when those bytes end inside it or name an
/// unknown tag type. Lets a decoder of untrusted bytes reject a malformed
/// record before unpackTags reads it.
std::optional<std::size_t> tagsExtent(const std::byte* data, std::size_t size);

}  // namespace core

#endif  // PUMI_CORE_TAGIO_HPP
