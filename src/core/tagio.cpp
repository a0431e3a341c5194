#include "core/tagio.hpp"

#include <cstdint>
#include <cstring>
#include <typeindex>

namespace core {

namespace {

enum class TagType : std::uint8_t { Int = 0, Long = 1, Double = 2 };

template <typename T>
void packTyped(const core::Mesh& mesh, core::Mesh::Tag tag, core::Ent e,
               TagType code, pcu::OutBuffer& buf) {
  buf.packString(tag->name());
  buf.pack(code);
  buf.pack<std::uint32_t>(static_cast<std::uint32_t>(tag->components()));
  buf.packVector(mesh.tags().get<T>(tag, e));
}

template <typename T>
void unpackTyped(core::Mesh& mesh, core::Ent e, const std::string& name,
                 std::uint32_t components, pcu::InBuffer& buf) {
  auto values = buf.unpackVector<T>();
  core::Mesh::Tag tag = mesh.tags().find(name);
  if (tag == nullptr) tag = mesh.tags().create<T>(name, components);
  mesh.tags().set<T>(tag, e, std::move(values));
}

}  // namespace

void packTags(const core::Mesh& mesh, core::Ent e, pcu::OutBuffer& buf,
              const std::string& only) {
  std::uint32_t count = 0;
  for (auto* tag : mesh.tags().list()) {
    if (!tag->has(e)) continue;
    if (!only.empty() && tag->name() != only) continue;
    if (tag->type() == std::type_index(typeid(int)) ||
        tag->type() == std::type_index(typeid(long)) ||
        tag->type() == std::type_index(typeid(double)))
      ++count;
  }
  buf.pack(count);
  for (auto* tag : mesh.tags().list()) {
    if (!tag->has(e)) continue;
    if (!only.empty() && tag->name() != only) continue;
    if (tag->type() == std::type_index(typeid(int)))
      packTyped<int>(mesh, tag, e, TagType::Int, buf);
    else if (tag->type() == std::type_index(typeid(long)))
      packTyped<long>(mesh, tag, e, TagType::Long, buf);
    else if (tag->type() == std::type_index(typeid(double)))
      packTyped<double>(mesh, tag, e, TagType::Double, buf);
  }
}

void skipTags(pcu::InBuffer& buf) {
  const auto count = buf.unpack<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    (void)buf.unpackString();
    const auto code = buf.unpack<TagType>();
    (void)buf.unpack<std::uint32_t>();
    switch (code) {
      case TagType::Int:
        (void)buf.unpackVector<int>();
        break;
      case TagType::Long:
        (void)buf.unpackVector<long>();
        break;
      case TagType::Double:
        (void)buf.unpackVector<double>();
        break;
    }
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
    switch (code) {
      case TagType::Int: width = sizeof(int); break;
      case TagType::Long: width = sizeof(long); break;
      case TagType::Double: width = sizeof(double); break;
      default: return std::nullopt;
    }
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
    switch (code) {
      case TagType::Int:
        unpackTyped<int>(mesh, e, name, components, buf);
        break;
      case TagType::Long:
        unpackTyped<long>(mesh, e, name, components, buf);
        break;
      case TagType::Double:
        unpackTyped<double>(mesh, e, name, components, buf);
        break;
    }
  }
}

}  // namespace core
