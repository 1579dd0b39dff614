#include "campaign/grid_lease.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "support/failpoints.h"
#include "support/fs_atomic.h"
#include "support/serialize.h"
#include "support/telemetry.h"

namespace iris::campaign {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMetaMagic = 0x4952474D;   // "IRGM"
constexpr std::uint32_t kLeaseMagic = 0x49524C53;  // "IRLS"
constexpr char kMetaFile[] = "grid.meta";

std::string lease_name(std::size_t range) {
  return "lease-" + std::to_string(range) + ".lock";
}

std::string done_name(std::size_t range) {
  return "done-" + std::to_string(range);
}

void count_lease(const char* name) {
  auto& reg = support::metrics();
  reg.add(reg.counter_id(name));
}

/// Every successful range acquisition, tagged with how it was won.
void trace_lease_claim(const char* mode, std::size_t range) {
  if (!support::trace_active()) return;
  support::TraceEvent event("lease_claim");
  event.str("mode", mode).num("range", static_cast<double>(range));
  support::trace(std::move(event));
}

void serialize_meta(const GridLeaseConfig& config, ByteWriter& out) {
  out.u32(kMetaMagic);
  // The campaign fingerprint already hashes every spec, including
  // non-baseline capability profiles (self-describing spec wire), so a
  // profile-matrix grid gets its own grid.meta identity with no format
  // change here.
  out.u64(config.fingerprint);
  out.u64(config.total_cells);
  out.u64(config.range_size);
}

/// Lease / done-marker payload: which campaign, which range, whose.
void serialize_lease(const GridLeaseConfig& config, std::size_t range,
                     ByteWriter& out) {
  out.u32(kLeaseMagic);
  out.u64(config.fingerprint);
  out.u64(range);
  out.str(config.shard_id);
}

/// Shard id stored in a lease file; empty when the file is unreadable
/// or does not parse. Leases appear whole, so only an older build's
/// torn lease parses badly; like any lease, it counts as held until it
/// goes stale.
std::string lease_owner(const std::string& path) {
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return {};
  ByteReader r(bytes.value());
  auto magic = r.u32();
  auto fingerprint = r.u64();
  auto range = r.u64();
  auto owner = r.str();
  if (!magic.ok() || magic.value() != kLeaseMagic || !fingerprint.ok() ||
      !range.ok() || !owner.ok()) {
    return {};
  }
  return std::move(owner).take();
}

}  // namespace

Result<GridMeta> read_grid_meta(const std::string& lease_dir) {
  const std::string path = (fs::path(lease_dir) / kMetaFile).string();
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.error();
  ByteReader r(bytes.value());
  auto magic = r.u32();
  auto fingerprint = r.u64();
  auto cells = r.u64();
  auto range = r.u64();
  if (!magic.ok() || magic.value() != kMetaMagic || !fingerprint.ok() ||
      !cells.ok() || !range.ok() || !r.exhausted() || range.value() == 0) {
    return Error{74, path + " is not a valid grid.meta"};
  }
  return GridMeta{fingerprint.value(), cells.value(), range.value()};
}

GridLease::GridLease(GridLeaseConfig config)
    : config_(std::move(config)),
      held_(range_count(), 0),
      completed_count_(range_count(), 0),
      completed_mask_(range_count()),
      last_refresh_(std::chrono::steady_clock::now()) {}

std::size_t GridLease::range_count() const noexcept {
  return (config_.total_cells + config_.range_size - 1) / config_.range_size;
}

std::size_t GridLease::range_len(std::size_t range) const noexcept {
  const std::size_t begin = range * config_.range_size;
  const std::size_t end =
      std::min(begin + config_.range_size, config_.total_cells);
  return end - begin;
}

std::string GridLease::lease_path(std::size_t range) const {
  return (fs::path(config_.dir) / lease_name(range)).string();
}

std::string GridLease::done_path(std::size_t range) const {
  return (fs::path(config_.dir) / done_name(range)).string();
}

Result<std::unique_ptr<GridLease>> GridLease::open(const GridLeaseConfig& config) {
  if (config.total_cells == 0 || config.range_size == 0) {
    return Error{70, "grid lease needs a non-empty grid and range size"};
  }
  if (config.shard_id.empty()) {
    return Error{71, "grid lease needs a shard id"};
  }
  std::error_code ec;
  fs::create_directories(config.dir, ec);
  if (ec) return Error{72, "cannot create lease dir " + config.dir};

  // Pin the campaign identity and grid geometry. Exactly one shard's
  // create wins; every other shard compares the winner's bytes. A
  // grid.meta shorter than a whole one was torn by an older build, which
  // wrote the bytes after creating the file: it is renamed aside and
  // created again, the way a stale lease is reclaimed. A pass that
  // neither returns nor breaks follows some shard's rename of a torn
  // file, so the loop ends.
  ByteWriter meta;
  serialize_meta(config, meta);
  const std::string meta_path = (fs::path(config.dir) / kMetaFile).string();
  for (;;) {
    auto created = create_file_atomic(config.dir, kMetaFile, meta.data());
    if (!created.ok()) return created.error();
    if (created.value()) break;
    auto bytes = read_file_bytes(meta_path);
    if (!bytes.ok()) {
      if (bytes.error().sys_errno == ENOENT) continue;  // a peer reclaims it
      return bytes.error();
    }
    if (bytes.value() == meta.data()) break;
    if (bytes.value().size() >= meta.size()) {
      return Error{73, meta_path +
                           " pins a different campaign or grid geometry; "
                           "use a fresh lease directory"};
    }
    const std::string aside = meta_path + ".stale." + config.shard_id;
    fs::rename(meta_path, aside, ec);
    if (ec && ec != std::errc::no_such_file_or_directory) {
      return Error{72, "cannot reclaim torn " + meta_path, ec.value()};
    }
    fs::remove(aside, ec);
  }
  return std::unique_ptr<GridLease>(new GridLease(config));
}

bool GridLease::acquire(std::size_t range) {
  const std::string path = lease_path(range);
  ByteWriter payload;
  serialize_lease(config_, range, payload);
  // A claim that cannot be written is a claim not won.
  const auto create = [&] {
    return create_file_atomic(config_.dir, lease_name(range), payload.data())
        .value_or(false);
  };

  // Fast path: nobody holds the range.
  if (create()) {
    ++stats_.claims;
    count_lease("lease.claims");
    trace_lease_claim("claim", range);
    return true;
  }

  // Our own lease from a previous incarnation? Adopt it immediately —
  // a relaunched shard must not wait out its own TTL.
  if (lease_owner(path) == config_.shard_id) {
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    ++stats_.adoptions;
    count_lease("lease.adoptions");
    trace_lease_claim("adopt", range);
    return true;
  }

  // A peer holds it. Only a stale lease (no heartbeat for ttl) may be
  // reclaimed, and only through the rename-aside dance: rename is
  // atomic, so of any number of concurrent stealers exactly one sees
  // its rename succeed and proceeds to re-create the lease.
  std::error_code ec;
  const auto written = fs::last_write_time(path, ec);
  if (ec) return false;  // vanished: owner finished or a stealer won; retry later
  const auto age = fs::file_time_type::clock::now() - written;
  if (std::chrono::duration<double>(age).count() <= config_.ttl_seconds) {
    return false;
  }
  const std::string aside = path + ".stale." + config_.shard_id;
  fs::rename(path, aside, ec);
  if (ec) return false;  // another stealer got there first
  fs::remove(aside, ec);
  if (!create()) return false;  // lost the re-create race
  ++stats_.reclaims;
  count_lease("lease.reclaims");
  trace_lease_claim("reclaim", range);
  return true;
}

bool GridLease::try_claim(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t r = range_of(index);
  if (r >= held_.size()) return false;
  if (held_[r] != 0) return true;
  std::error_code ec;
  if (fs::exists(done_path(r), ec)) {
    ++stats_.denials;
    count_lease("lease.denials");
    return false;
  }
  if (acquire(r)) {
    held_[r] = 1;
    // A range adopted after a restart may already be partially (or even
    // fully) journaled; publish the done marker the dead incarnation
    // never got to write.
    if (completed_count_[r] == range_len(r)) publish_done(r);
    return true;
  }
  ++stats_.denials;
  count_lease("lease.denials");
  return false;
}

void GridLease::completed(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t r = range_of(index);
  if (r >= held_.size()) return;
  auto& mask = completed_mask_[r];
  if (mask.empty()) mask.assign(range_len(r), 0);
  const std::size_t offset = index - r * config_.range_size;
  if (mask[offset] != 0) return;
  mask[offset] = 1;
  ++completed_count_[r];
  if (completed_count_[r] != range_len(r)) return;
  if (held_[r] != 0) {
    publish_done(r);
  } else if (lease_owner(lease_path(r)) == config_.shard_id) {
    // A previous incarnation of this shard journaled the whole range
    // but was killed before publishing the marker; retire its lease now
    // so no peer wastes a reclaim re-running finished work.
    held_[r] = 1;
    publish_done(r);
  }
}

void GridLease::publish_done(std::size_t range) {
  // Atomically retire the lease into the done marker. If the lease is
  // gone (stolen after a long stall), fall back to creating the marker
  // directly, which does nothing if someone else already published it.
  std::error_code ec;
  fs::rename(lease_path(range), done_path(range), ec);
  if (ec) {
    ByteWriter payload;
    serialize_lease(config_, range, payload);
    (void)create_file_atomic(config_.dir, done_name(range), payload.data());
  }
  held_[range] = 0;
  ++stats_.completed_ranges;
}

void GridLease::heartbeat() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  const double since =
      std::chrono::duration<double>(now - last_refresh_).count();
  if (since < config_.ttl_seconds / 4.0) return;
  last_refresh_ = now;
  ++stats_.heartbeats;
  count_lease("lease.heartbeats");
  for (std::size_t r = 0; r < held_.size(); ++r) {
    if (held_[r] == 0) continue;
    // A refresh is only valid on a lease we still own. A stalled shard
    // can outlive its TTL: a peer renames the lease aside and re-creates
    // it under its own id — blindly refreshing the mtime then would keep
    // a *peer's* lease alive while both shards run the range. Verify
    // ownership first, and on any failure drop the range: the cells this
    // shard already journaled stay valid (the reducer dedups verified
    // duplicates), it just stops claiming inside a range it lost.
    const std::string path = lease_path(r);
    bool lost = support::failpoints::fs_error("lease_heartbeat", r).has_value();
    if (!lost && lease_owner(path) != config_.shard_id) lost = true;
    if (!lost) {
      std::error_code ec;
      fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
      if (ec) lost = true;
    }
    if (lost) {
      held_[r] = 0;
      ++stats_.lost_leases;
      // Surfaced three ways so a fleet monitor can attribute it per
      // shard: a registry counter (lands in the shard's status file), a
      // trace event, and the original stderr warning.
      count_lease("lease.lost");
      if (support::trace_active()) {
        support::TraceEvent event("lease_lost");
        event.num("range", static_cast<double>(r))
            .str("shard", config_.shard_id);
        support::trace(std::move(event));
      }
      std::fprintf(stderr,
                   "grid-lease: shard %s lost lease on range %zu "
                   "(stolen or unwritable); abandoning the range\n",
                   config_.shard_id.c_str(), r);
    }
  }
}

std::size_t GridLease::release_held() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t released = 0;
  for (std::size_t r = 0; r < held_.size(); ++r) {
    if (held_[r] == 0) continue;
    const std::string path = lease_path(r);
    // Only remove what is verifiably still ours — racing a stealer here
    // must never delete the peer's fresh lease.
    if (lease_owner(path) == config_.shard_id) {
      std::error_code ec;
      fs::remove(path, ec);
      if (!ec) ++released;
    }
    held_[r] = 0;
  }
  return released;
}

GridLeaseStats GridLease::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool GridLease::holds(std::size_t range) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return range < held_.size() && held_[range] != 0;
}

}  // namespace iris::campaign
