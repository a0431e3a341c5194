#include "core/tagio.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <typeindex>

namespace core {

namespace {

enum class TagType : std::uint8_t { Int = 0, Long = 1, Double = 2 };

/// The wire code of a transported tag's element type; nullopt for the
/// part-local element types.
std::optional<TagType> codeOf(core::Mesh::Tag tag) {
  if (tag->type() == std::type_index(typeid(int))) return TagType::Int;
  if (tag->type() == std::type_index(typeid(long))) return TagType::Long;
  if (tag->type() == std::type_index(typeid(double))) return TagType::Double;
  return std::nullopt;
}

/// Call f(T{}) with the element type T that `code` names; no call for an
/// unknown code.
template <typename F>
void withType(TagType code, F&& f) {
  switch (code) {
    case TagType::Int: return f(int{});
    case TagType::Long: return f(long{});
    case TagType::Double: return f(double{});
  }
}

template <typename T>
void setTyped(core::Mesh& mesh, core::Ent e, const std::string& name,
              std::size_t components, std::vector<T> values) {
  core::Mesh::Tag tag = mesh.tags().find(name);
  if (tag == nullptr) tag = mesh.tags().create<T>(name, components);
  mesh.tags().set<T>(tag, e, std::move(values));
}

}  // namespace

void packTags(const core::Mesh& mesh, core::Ent e, pcu::OutBuffer& buf,
              const std::string& only) {
  const auto tags = mesh.tags().list();
  const auto wanted = [&](core::Mesh::Tag tag) {
    return tag->has(e) && (only.empty() || tag->name() == only) &&
           codeOf(tag).has_value();
  };
  buf.pack(static_cast<std::uint32_t>(
      std::count_if(tags.begin(), tags.end(), wanted)));
  for (core::Mesh::Tag tag : tags) {
    if (!wanted(tag)) continue;
    buf.packString(tag->name());
    buf.pack(*codeOf(tag));
    buf.pack<std::uint32_t>(static_cast<std::uint32_t>(tag->components()));
    withType(*codeOf(tag), [&](auto t) {
      buf.packVector(mesh.tags().get<decltype(t)>(tag, e));
    });
  }
}

void copyTags(const core::Mesh& from, std::span<const core::Mesh::Tag> tags,
              core::Ent e, core::Mesh& to, core::Ent copy) {
  for (core::Mesh::Tag tag : tags) {
    const auto code = codeOf(tag);
    if (!code || !tag->has(e)) continue;
    withType(*code, [&](auto t) {
      using T = decltype(t);
      setTyped<T>(to, copy, tag->name(), tag->components(),
                  from.tags().get<T>(tag, e));
    });
  }
}

void skipTags(pcu::InBuffer& buf) {
  const auto count = buf.unpack<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    (void)buf.unpackString();
    const auto code = buf.unpack<TagType>();
    (void)buf.unpack<std::uint32_t>();
    withType(code, [&](auto t) { (void)buf.unpackVector<decltype(t)>(); });
  }
}

std::optional<std::size_t> tagsExtent(const std::byte* data,
                                      std::size_t size) {
  std::size_t pos = 0;
  const auto read = [&](auto& value) {
    if (size - pos < sizeof(value)) return false;
    std::memcpy(&value, data + pos, sizeof(value));
    pos += sizeof(value);
    return true;
  };
  const auto skip = [&](std::uint64_t n) {
    if (size - pos < n) return false;
    pos += static_cast<std::size_t>(n);
    return true;
  };
  std::uint32_t count = 0;
  if (!read(count)) return std::nullopt;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t name_len = 0, n = 0;
    TagType code{};
    std::uint32_t components = 0;
    if (!read(name_len) || !skip(name_len) || !read(code) ||
        !read(components) || !read(n))
      return std::nullopt;
    std::uint64_t width = 0;
    withType(code, [&](auto t) { width = sizeof(t); });
    if (width == 0) return std::nullopt;  // unknown tag type
    if (n > (size - pos) / width || !skip(n * width)) return std::nullopt;
  }
  return pos;
}

void unpackTags(core::Mesh& mesh, core::Ent e, pcu::InBuffer& buf) {
  const auto count = buf.unpack<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = buf.unpackString();
    const auto code = buf.unpack<TagType>();
    const auto components = buf.unpack<std::uint32_t>();
    withType(code, [&](auto t) {
      setTyped(mesh, e, name, components, buf.unpackVector<decltype(t)>());
    });
  }
}

}  // namespace core
