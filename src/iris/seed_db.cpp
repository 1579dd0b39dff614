#include "iris/seed_db.h"

#include <filesystem>
#include <unordered_set>

#include "support/fs_atomic.h"

namespace iris {

void SeedDb::store(std::string name, VmBehavior behavior) {
  behaviors_[std::move(name)] = std::move(behavior);
}

const VmBehavior* SeedDb::behavior(const std::string& name) const {
  const auto it = behaviors_.find(name);
  return it == behaviors_.end() ? nullptr : &it->second;
}

std::vector<std::string> SeedDb::names() const {
  std::vector<std::string> out;
  out.reserve(behaviors_.size());
  for (const auto& [name, _] : behaviors_) out.push_back(name);
  return out;
}

std::vector<std::size_t> SeedDb::seeds_with_reason(const std::string& name,
                                                   vtx::ExitReason reason) const {
  std::vector<std::size_t> out;
  const VmBehavior* b = behavior(name);
  if (b == nullptr) return out;
  for (std::size_t i = 0; i < b->size(); ++i) {
    if ((*b)[i].seed.reason == reason) out.push_back(i);
  }
  return out;
}

std::size_t SeedDb::unique_seed_count() const {
  std::unordered_set<std::uint64_t> hashes;
  for (const auto& [_, behavior] : behaviors_) {
    for (const auto& rec : behavior) hashes.insert(rec.seed.hash());
  }
  return hashes.size();
}

std::size_t SeedDb::total_seed_bytes() const {
  std::size_t total = 0;
  for (const auto& [_, behavior] : behaviors_) {
    for (const auto& rec : behavior) total += rec.seed.byte_size();
  }
  return total;
}

std::vector<std::uint8_t> SeedDb::serialize() const {
  // Exact size up front, so the buffer is allocated once: magic and
  // count, then each behavior's length-prefixed name and its bytes.
  std::size_t size = 8;
  for (const auto& [name, behavior] : behaviors_) {
    size += 4 + name.size() + behavior_byte_size(behavior);
  }
  ByteWriter w;
  w.reserve(size);
  w.u32(0x49524953);  // "IRIS" magic
  w.u32(static_cast<std::uint32_t>(behaviors_.size()));
  for (const auto& [name, behavior] : behaviors_) {
    w.str(name);
    serialize_behavior(behavior, w);
  }
  return std::move(w).take();
}

Result<SeedDb> SeedDb::deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  auto magic = r.u32();
  if (!magic.ok() || magic.value() != 0x49524953) {
    return Error{10, "bad seed-db magic"};
  }
  auto count = r.u32();
  if (!count.ok()) return count.error();
  // A stored behavior costs at least 8 bytes (name length + exit
  // count); reject counts the stream cannot possibly hold.
  if (count.value() > r.remaining() / 8) {
    return Error{14, "behavior count overruns seed db"};
  }
  SeedDb db;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto name = r.str();
    if (!name.ok()) return name.error();
    auto behavior = deserialize_behavior(r);
    if (!behavior.ok()) return behavior.error();
    db.store(name.value(), std::move(behavior).take());
  }
  // serialize() produces exact bytes; anything after the last behavior
  // is corruption (e.g. a foreign file with a lucky magic).
  if (!r.exhausted()) return Error{15, "trailing bytes after seed db"};
  return db;
}

Status SeedDb::save_file(const std::string& path) const {
  // Atomic save: a killed writer never leaves a truncated corpus behind
  // and a concurrent reader sees either the old file or the new one.
  const std::filesystem::path target(path);
  return write_file_atomic(target.parent_path(), target.filename().string(),
                           serialize());
}

Result<SeedDb> SeedDb::load_file(const std::string& path) {
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.error();
  return deserialize(bytes.value());
}

}  // namespace iris
