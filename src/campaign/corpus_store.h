// On-disk seed corpus (AFL-style corpus directory).
//
// A CorpusStore is a directory of single-seed files that independent
// fuzzing processes use to exchange discoveries: every entry is one
// VmSeed plus the CorpusEntry scheduling metadata the coverage-guided
// loop needs to give an imported mutant energy. Files are named by the
// seed's content hash (so cross-worker deduplication is a filename
// collision) and written atomically — the payload goes to a dot-prefixed
// temp file first and is renamed into place, so a reader scanning the
// directory never observes a half-written entry and a killed writer
// leaves at most an ignorable temp file behind.
//
// The wire format rides on support/serialize.h, the same little-endian
// layout as the seed DB, so corpora are stable across builds and
// machines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/coverage_guided.h"
#include "support/result.h"

namespace iris::campaign {

class CorpusStore {
 public:
  explicit CorpusStore(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Create the corpus directory (and parents). Idempotent.
  Status init() const;

  /// Name of the entry file that would hold `seed` (content-addressed).
  [[nodiscard]] static std::string entry_name(const VmSeed& seed);

  /// Serialize one corpus entry (magic + seed + scheduling metadata).
  static void serialize_entry(const fuzz::CorpusEntry& entry, ByteWriter& out);
  static Result<fuzz::CorpusEntry> deserialize_entry(ByteReader& in);

  /// Atomically write `entry` into the store (write temp, then rename).
  /// Overwrites an existing entry with the same content hash — the
  /// payload is identical by construction, so the race is benign.
  Status write_entry(const fuzz::CorpusEntry& entry) const;

  /// True if an entry with `seed`'s content hash is already on disk.
  [[nodiscard]] bool contains(const VmSeed& seed) const;

  /// Entry file names currently on disk, sorted (deterministic order).
  [[nodiscard]] std::vector<std::string> list() const;

  /// Parse one entry file. Corrupt or truncated files yield an error,
  /// never a crash (the bytes may come from a killed writer or a bad
  /// disk — the same hardening contract as SeedDb::deserialize).
  [[nodiscard]] Result<fuzz::CorpusEntry> read_entry(
      const std::string& name) const;

  /// Load every readable entry, in sorted-filename order. Unreadable
  /// entries are skipped (counted in `skipped` when non-null): a shared
  /// corpus must tolerate one bad file without losing the rest.
  [[nodiscard]] std::vector<fuzz::CorpusEntry> load_all(
      std::size_t* skipped = nullptr) const;

  /// The seeds of the first `max_seeds` readable entries, in sorted-name
  /// order: a campaign's sync-epoch snapshot. Corrupt entries are
  /// skipped, never fatal.
  [[nodiscard]] std::vector<VmSeed> snapshot(std::size_t max_seeds) const;

  /// Import every entry of `other` that this store does not already
  /// hold (by content-hash filename). Returns the number imported.
  Result<std::size_t> sync_from(const CorpusStore& other) const;

  /// Number of entry files on disk.
  [[nodiscard]] std::size_t size() const { return list().size(); }

 private:
  std::string dir_;
};

}  // namespace iris::campaign
