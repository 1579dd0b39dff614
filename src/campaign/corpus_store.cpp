#include "campaign/corpus_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/failpoints.h"
#include "support/fs_atomic.h"
#include "support/retry.h"
#include "support/telemetry.h"

namespace iris::campaign {
namespace {

namespace fs = std::filesystem;

/// Shared-store traffic counters (reads/writes and their failures).
void count_corpus(const char* name) {
  auto& reg = support::metrics();
  reg.add(reg.counter_id(name));
}

constexpr std::uint32_t kEntryMagic = 0x49524331;  // "IRC1"
constexpr char kEntryPrefix[] = "seed-";
constexpr char kEntrySuffix[] = ".bin";

bool is_entry_name(const std::string& name) {
  return name.starts_with(kEntryPrefix) && name.ends_with(kEntrySuffix);
}

}  // namespace

Status CorpusStore::init() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return Error{23, "cannot create corpus dir " + dir_};
  return {};
}

std::string CorpusStore::entry_name(const VmSeed& seed) {
  char buf[sizeof(kEntryPrefix) + 16 + sizeof(kEntrySuffix)];
  std::snprintf(buf, sizeof(buf), "%s%016llx%s", kEntryPrefix,
                static_cast<unsigned long long>(seed.hash()), kEntrySuffix);
  return buf;
}

void CorpusStore::serialize_entry(const CorpusEntry& entry, ByteWriter& out) {
  out.u32(kEntryMagic);
  entry.seed.serialize(out);
  out.u32(entry.energy);
  out.u32(entry.discoveries);
  out.u8(entry.born_of);
}

Result<CorpusEntry> CorpusStore::deserialize_entry(ByteReader& in) {
  auto magic = in.u32();
  if (!magic.ok() || magic.value() != kEntryMagic) {
    return Error{24, "bad corpus entry magic"};
  }
  auto seed = VmSeed::deserialize(in);
  if (!seed.ok()) return seed.error();
  CorpusEntry entry;
  entry.seed = std::move(seed).take();
  auto energy = in.u32();
  auto discoveries = in.u32();
  auto born_of = in.u8();
  if (!energy.ok() || !discoveries.ok() || !born_of.ok()) {
    return Error{25, "truncated corpus entry metadata"};
  }
  if (born_of.value() > kMaxBornOf) {
    return Error{26, "bad mutation op in corpus entry"};
  }
  entry.energy = energy.value();
  entry.discoveries = discoveries.value();
  entry.born_of = born_of.value();
  if (!in.exhausted()) return Error{27, "trailing bytes in corpus entry"};
  return entry;
}

Status CorpusStore::write_entry(const CorpusEntry& entry) const {
  ByteWriter w;
  serialize_entry(entry, w);
  // Shared-store writes ride the campaign retry policy: transient
  // contention (EBUSY/ESTALE on network filesystems) retries, permanent
  // conditions surface to the caller.
  const auto status = support::retry_io(support::RetryPolicy{}, [&]() -> Status {
    if (auto injected = support::failpoints::fs_error("corpus_write")) {
      return *injected;
    }
    return write_file_atomic(dir_, entry_name(entry.seed), w.data());
  });
  count_corpus(status.ok() ? "corpus.writes" : "corpus.write_errors");
  return status;
}

bool CorpusStore::contains(const VmSeed& seed) const {
  std::error_code ec;
  return fs::exists(fs::path(dir_) / entry_name(seed), ec);
}

std::vector<std::string> CorpusStore::list() const {
  std::vector<std::string> names;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return names;
  for (const auto& dirent : it) {
    const std::string name = dirent.path().filename().string();
    if (is_entry_name(name)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<CorpusEntry> CorpusStore::read_entry(const std::string& name) const {
  Result<std::vector<std::uint8_t>> bytes = Error{};
  const auto read_once = [&]() -> Status {
    if (auto injected = support::failpoints::fs_error("corpus_read")) {
      return *injected;
    }
    bytes = read_file_bytes(fs::path(dir_) / name);
    return bytes.ok() ? Status{} : Status{bytes.error()};
  };
  if (auto status = support::retry_io(support::RetryPolicy{}, read_once);
      !status.ok()) {
    count_corpus("corpus.read_errors");
    return status.error();
  }
  count_corpus("corpus.reads");
  ByteReader r(bytes.value());
  return deserialize_entry(r);
}

std::vector<CorpusEntry> CorpusStore::load_all(std::size_t* skipped) const {
  std::vector<CorpusEntry> entries;
  std::size_t bad = 0;
  for (const auto& name : list()) {
    auto entry = read_entry(name);
    if (entry.ok()) {
      entries.push_back(std::move(entry).take());
    } else {
      ++bad;
    }
  }
  if (skipped != nullptr) *skipped = bad;
  return entries;
}

std::vector<VmSeed> CorpusStore::snapshot(std::size_t max_seeds) const {
  std::vector<VmSeed> seeds;
  for (const auto& name : list()) {
    if (seeds.size() >= max_seeds) break;
    auto entry = read_entry(name);
    if (entry.ok()) seeds.push_back(std::move(entry).take().seed);
  }
  return seeds;
}

Result<std::size_t> CorpusStore::sync_from(const CorpusStore& other) const {
  if (auto status = init(); !status.ok()) return status.error();
  std::size_t imported = 0;
  for (const auto& name : other.list()) {
    std::error_code ec;
    if (fs::exists(fs::path(dir_) / name, ec)) continue;
    auto entry = other.read_entry(name);
    if (!entry.ok()) continue;  // skip corrupt source entries
    if (auto status = write_entry(entry.value()); !status.ok()) {
      return status.error();
    }
    ++imported;
  }
  return imported;
}

}  // namespace iris::campaign
