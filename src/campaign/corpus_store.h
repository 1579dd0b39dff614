// On-disk seed corpus (AFL-style corpus directory).
//
// A CorpusStore is a directory of single-seed files that independent
// processes use to exchange seeds: seed_corpus_tool exports a seed DB
// into one, merges and minimizes them, and a campaign with a corpus_dir
// pins a snapshot of one as its sync epoch. Every entry file is one
// CorpusEntry: a VmSeed plus three metadata fields the store keeps
// verbatim. Files are named by the seed's content hash (so cross-worker
// deduplication is a filename collision) and written atomically — the
// payload goes to a dot-prefixed temp file first and is renamed into
// place, so a reader scanning the directory never observes a
// half-written entry and a killed writer leaves at most an ignorable
// temp file behind.
//
// The wire format rides on support/serialize.h, the same little-endian
// layout as the seed DB, so corpora are stable across builds and
// machines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "iris/seed.h"
#include "support/result.h"
#include "support/serialize.h"

namespace iris::campaign {

/// What one entry file stores. The metadata is a greybox scheduler's
/// (the paper's §IX outlook); no reader in this tree schedules by it,
/// but it is part of the wire format, so it round-trips unchanged.
struct CorpusEntry {
  VmSeed seed;
  std::uint32_t energy = 8;       ///< mutations to spend per schedule
  std::uint32_t discoveries = 0;  ///< times a mutant of this entry paid off
  /// Mutation operator that produced the entry: 0 single bit-flip (the
  /// PoC rule), 1 byte flip, 2 interesting value, 3 arithmetic, 4 field
  /// swap. Decoding rejects anything above kMaxBornOf.
  std::uint8_t born_of = 0;
};
inline constexpr std::uint8_t kMaxBornOf = 4;

class CorpusStore {
 public:
  explicit CorpusStore(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Create the corpus directory (and parents). Idempotent.
  Status init() const;

  /// Name of the entry file that would hold `seed` (content-addressed).
  [[nodiscard]] static std::string entry_name(const VmSeed& seed);

  /// Serialize one corpus entry (magic + seed + scheduling metadata).
  static void serialize_entry(const CorpusEntry& entry, ByteWriter& out);
  static Result<CorpusEntry> deserialize_entry(ByteReader& in);

  /// Atomically write `entry` into the store (write temp, then rename).
  /// Overwrites an existing entry with the same content hash — the
  /// payload is identical by construction, so the race is benign.
  Status write_entry(const CorpusEntry& entry) const;

  /// True if an entry with `seed`'s content hash is already on disk.
  [[nodiscard]] bool contains(const VmSeed& seed) const;

  /// Entry file names currently on disk, sorted (deterministic order).
  [[nodiscard]] std::vector<std::string> list() const;

  /// Parse one entry file. Corrupt or truncated files yield an error,
  /// never a crash (the bytes may come from a killed writer or a bad
  /// disk — the same hardening contract as SeedDb::deserialize).
  [[nodiscard]] Result<CorpusEntry> read_entry(
      const std::string& name) const;

  /// Load every readable entry, in sorted-filename order. Unreadable
  /// entries are skipped (counted in `skipped` when non-null): a shared
  /// corpus must tolerate one bad file without losing the rest.
  [[nodiscard]] std::vector<CorpusEntry> load_all(
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
