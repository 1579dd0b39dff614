#include "campaign/monitor.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>

#include "campaign/forensics.h"
#include "campaign/grid_lease.h"
#include "support/fs_atomic.h"
#include "support/retry.h"

namespace iris::campaign {
namespace {

namespace fs = std::filesystem;

/// Numbers render exactly as the trace sink renders them, so counts
/// survive a JSON round trip.
constexpr auto& fmt_num = support::format_number;

std::string jquote(std::string_view text) {
  return "\"" + support::json_escape(text) + "\"";
}

}  // namespace

std::uint64_t ShardStatus::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::string status_file_name(const std::string& shard_id) {
  return "status-" + shard_id + ".json";
}

double wall_clock_unix() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string render_status_json(const ShardStatus& status) {
  std::string out = "{\n";
  out += "  \"shard\": " + jquote(status.shard_id) + ",\n";
  out += "  \"pid\": " + fmt_num(static_cast<double>(status.pid)) + ",\n";
  out += "  \"started_unix\": " + fmt_num(status.started_unix) + ",\n";
  out += "  \"heartbeat_unix\": " + fmt_num(status.heartbeat_unix) + ",\n";
  out += "  \"finished\": " + std::string(status.finished ? "1" : "0") + ",\n";
  out += "  \"cells_total\": " +
         fmt_num(static_cast<double>(status.cells_total)) + ",\n";
  out += "  \"cells_done\": " + fmt_num(static_cast<double>(status.cells_done)) +
         ",\n";
  out += "  \"cells_resumed\": " +
         fmt_num(static_cast<double>(status.cells_resumed)) + ",\n";
  out += "  \"cells_poisoned\": " +
         fmt_num(static_cast<double>(status.cells_poisoned)) + ",\n";
  out += "  \"harness_faults\": " +
         fmt_num(static_cast<double>(status.harness_faults)) + ",\n";
  out += "  \"executed\": " + fmt_num(static_cast<double>(status.executed)) +
         ",\n";
  out += "  \"elapsed_seconds\": " + fmt_num(status.elapsed_seconds) + ",\n";
  out += "  \"mutants_per_second\": " + fmt_num(status.mutants_per_second) +
         ",\n";
  out += "  \"in_flight\": [";
  for (std::size_t i = 0; i < status.in_flight.size(); ++i) {
    if (i != 0) out += ", ";
    out += fmt_num(static_cast<double>(status.in_flight[i]));
  }
  out += "],\n";
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < status.counters.size(); ++i) {
    if (i != 0) out += ", ";
    out += jquote(status.counters[i].first) + ": " +
           fmt_num(static_cast<double>(status.counters[i].second));
  }
  out += "},\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < status.gauges.size(); ++i) {
    if (i != 0) out += ", ";
    out += jquote(status.gauges[i].first) + ": " +
           fmt_num(status.gauges[i].second);
  }
  out += "}\n}\n";
  return out;
}

Status write_status_file(const std::string& path, const ShardStatus& status) {
  const fs::path p(path);
  const std::string rendered = render_status_json(status);
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(rendered.data()), rendered.size());
  const fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
  // Same retry discipline as every other campaign publication; the
  // caller treats any surviving failure as "no status this beat".
  return support::retry_io(support::RetryPolicy{}, [&]() -> Status {
    return write_file_atomic(dir, p.filename().string(), bytes);
  });
}

Result<ShardStatus> read_status_file(const std::string& path) {
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.error();
  const std::string_view text(
      reinterpret_cast<const char*>(bytes.value().data()),
      bytes.value().size());
  auto parsed = support::FlatJson::parse(text);
  if (!parsed.ok()) {
    return Error{75, path + ": " + parsed.error().message};
  }
  const support::FlatJson& json = parsed.value();
  ShardStatus status;
  status.shard_id = std::string(json.str("shard").value_or(""));
  if (status.shard_id.empty()) {
    return Error{75, path + " is not a shard status file"};
  }
  const auto sz = [&](std::string_view key) {
    return static_cast<std::size_t>(json.num(key).value_or(0.0));
  };
  status.pid = static_cast<std::uint64_t>(json.num("pid").value_or(0.0));
  status.started_unix = json.num("started_unix").value_or(0.0);
  status.heartbeat_unix = json.num("heartbeat_unix").value_or(0.0);
  status.finished = json.num("finished").value_or(0.0) != 0.0;
  status.cells_total = sz("cells_total");
  status.cells_done = sz("cells_done");
  status.cells_resumed = sz("cells_resumed");
  status.cells_poisoned = sz("cells_poisoned");
  status.harness_faults = sz("harness_faults");
  status.executed = sz("executed");
  status.elapsed_seconds = json.num("elapsed_seconds").value_or(0.0);
  status.mutants_per_second = json.num("mutants_per_second").value_or(0.0);
  if (const auto* in_flight = json.array("in_flight")) {
    for (const double cell : *in_flight) {
      status.in_flight.push_back(static_cast<std::size_t>(cell));
    }
  }
  for (const auto& [key, scalar] : json.scalars) {
    if (key.starts_with("counters/") && !scalar.is_string) {
      status.counters.emplace_back(
          key.substr(sizeof("counters/") - 1),
          static_cast<std::uint64_t>(scalar.value));
    } else if (key.starts_with("gauges/") && !scalar.is_string) {
      status.gauges.emplace_back(key.substr(sizeof("gauges/") - 1),
                                 scalar.value);
    }
  }
  return status;
}

const char* to_string(ShardView::State state) {
  switch (state) {
    case ShardView::State::kLive: return "live";
    case ShardView::State::kDone: return "done";
    case ShardView::State::kStale: return "stale";
  }
  return "?";
}

Result<FleetView> aggregate_fleet(const std::string& dir,
                                  double stale_after_seconds, double now_unix,
                                  std::size_t trace_tail) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return Error{76, "cannot read fleet directory " + dir};

  FleetView fleet;
  std::vector<std::string> trace_files;
  std::vector<std::string> forensic_files;
  std::size_t done_markers = 0;
  for (const auto& dirent : it) {
    const std::string name = dirent.path().filename().string();
    if (name.starts_with("status-") && name.ends_with(".json")) {
      auto status = read_status_file(dirent.path().string());
      if (!status.ok()) continue;  // torn or foreign: skip, never abort
      ShardView view;
      view.status = std::move(status).take();
      fleet.shards.push_back(std::move(view));
    } else if (name.starts_with("trace-") && name.ends_with(".jsonl")) {
      trace_files.push_back(dirent.path().string());
    } else if (is_forensic_file_name(name)) {
      forensic_files.push_back(dirent.path().string());
    } else if (name.starts_with("done-")) {
      ++done_markers;
    }
  }

  // Forensic records: count the parseable ones and keep the newest
  // fault's summary (torn/corrupt files are skipped like torn statuses).
  std::sort(forensic_files.begin(), forensic_files.end());
  for (const std::string& path : forensic_files) {
    auto record = read_forensics(path);
    if (!record.ok()) continue;
    ++fleet.forensics;
    if (record.value().written_unix >= fleet.last_fault_unix) {
      fleet.last_fault_unix = record.value().written_unix;
      fleet.last_fault_cell = record.value().cell;
      fleet.last_fault = record.value().fault;
    }
  }
  std::sort(fleet.shards.begin(), fleet.shards.end(),
            [](const ShardView& a, const ShardView& b) {
              return a.status.shard_id < b.status.shard_id;
            });

  // Grid geometry: grid.meta is authoritative when present (distributed
  // lease dir); otherwise trust the statuses.
  if (auto meta = read_grid_meta(dir); meta.ok()) {
    fleet.cells_total = static_cast<std::size_t>(meta.value().total_cells);
    fleet.ranges_total = meta.value().range_count();
    fleet.ranges_done = std::min(done_markers, fleet.ranges_total);
  }

  for (ShardView& shard : fleet.shards) {
    const ShardStatus& status = shard.status;
    shard.heartbeat_age_seconds = now_unix - status.heartbeat_unix;
    if (status.finished) {
      shard.state = ShardView::State::kDone;
      ++fleet.done_shards;
    } else if (shard.heartbeat_age_seconds > stale_after_seconds) {
      shard.state = ShardView::State::kStale;
      ++fleet.stale_shards;
    } else {
      shard.state = ShardView::State::kLive;
      ++fleet.live_shards;
      fleet.mutants_per_second += status.mutants_per_second;
    }
    fleet.cells_total = std::max(fleet.cells_total, status.cells_total);
    fleet.cells_done += status.cells_done;
    fleet.cells_poisoned += status.cells_poisoned;
    fleet.harness_faults += status.harness_faults;
    fleet.executed += status.executed;
    fleet.lost_leases += status.counter("lease.lost");
    fleet.lease_reclaims += status.counter("lease.reclaims");
    fleet.rlimit_kills += status.counter("cell.rlimit_kills");
    fleet.model_faults += status.counter("fuzz.model_faults");
    fleet.reprobes += status.counter("poison.reprobes");
    fleet.rehabilitated += status.counter("poison.rehabilitated");
  }

  if (fleet.ranges_total > 0) {
    fleet.completion_pct =
        100.0 * static_cast<double>(fleet.ranges_done) /
        static_cast<double>(fleet.ranges_total);
  } else if (fleet.cells_total > 0) {
    fleet.completion_pct =
        std::min(100.0, 100.0 * static_cast<double>(fleet.cells_done) /
                            static_cast<double>(fleet.cells_total));
  }

  // Trace tails: the newest `trace_tail` events of each stream, in
  // shard-file order. Monotonic timestamps are per-process, so there is
  // no meaningful global ordering to fake — per-shard order is honest.
  std::sort(trace_files.begin(), trace_files.end());
  for (const std::string& path : trace_files) {
    auto trace = support::read_trace(path);
    if (!trace.ok()) continue;
    fleet.trace_gaps += trace.value().seq_gaps;
    auto& events = trace.value().events;
    const std::size_t take = std::min(trace_tail, events.size());
    for (std::size_t i = events.size() - take; i < events.size(); ++i) {
      fleet.recent_events.push_back(std::move(events[i]));
    }
  }
  return fleet;
}

std::string render_fleet_json(const FleetView& fleet) {
  std::string out = "{\n";
  out += "  \"cells_total\": " + fmt_num(static_cast<double>(fleet.cells_total)) +
         ",\n";
  out += "  \"cells_done\": " + fmt_num(static_cast<double>(fleet.cells_done)) +
         ",\n";
  out += "  \"ranges_total\": " +
         fmt_num(static_cast<double>(fleet.ranges_total)) + ",\n";
  out += "  \"ranges_done\": " + fmt_num(static_cast<double>(fleet.ranges_done)) +
         ",\n";
  out += "  \"completion_pct\": " + fmt_num(fleet.completion_pct) + ",\n";
  out += "  \"executed\": " + fmt_num(static_cast<double>(fleet.executed)) +
         ",\n";
  out += "  \"mutants_per_second\": " + fmt_num(fleet.mutants_per_second) +
         ",\n";
  out += "  \"cells_poisoned\": " +
         fmt_num(static_cast<double>(fleet.cells_poisoned)) + ",\n";
  out += "  \"harness_faults\": " +
         fmt_num(static_cast<double>(fleet.harness_faults)) + ",\n";
  out += "  \"rlimit_kills\": " +
         fmt_num(static_cast<double>(fleet.rlimit_kills)) + ",\n";
  out += "  \"model_faults\": " +
         fmt_num(static_cast<double>(fleet.model_faults)) + ",\n";
  out += "  \"reprobes\": " + fmt_num(static_cast<double>(fleet.reprobes)) +
         ",\n";
  out += "  \"rehabilitated\": " +
         fmt_num(static_cast<double>(fleet.rehabilitated)) + ",\n";
  out += "  \"forensics\": " + fmt_num(static_cast<double>(fleet.forensics)) +
         ",\n";
  out += "  \"last_fault_cell\": " +
         fmt_num(static_cast<double>(fleet.last_fault_cell)) + ",\n";
  out += "  \"last_fault\": " + jquote(fleet.last_fault) + ",\n";
  out += "  \"trace_gaps\": " + fmt_num(static_cast<double>(fleet.trace_gaps)) +
         ",\n";
  out += "  \"lost_leases\": " + fmt_num(static_cast<double>(fleet.lost_leases)) +
         ",\n";
  out += "  \"lease_reclaims\": " +
         fmt_num(static_cast<double>(fleet.lease_reclaims)) + ",\n";
  out += "  \"live_shards\": " + fmt_num(static_cast<double>(fleet.live_shards)) +
         ",\n";
  out += "  \"stale_shards\": " +
         fmt_num(static_cast<double>(fleet.stale_shards)) + ",\n";
  out += "  \"done_shards\": " + fmt_num(static_cast<double>(fleet.done_shards)) +
         ",\n";
  out += "  \"shards\": [\n";
  for (std::size_t i = 0; i < fleet.shards.size(); ++i) {
    const ShardView& shard = fleet.shards[i];
    const ShardStatus& s = shard.status;
    // One line per shard, "shard" then "state" first: smoke tests grep
    // `"shard": "1-of-3", "state": "stale"` straight off this.
    out += "    {\"shard\": " + jquote(s.shard_id) + ", \"state\": " +
           jquote(to_string(shard.state)) + ", \"heartbeat_age\": " +
           fmt_num(shard.heartbeat_age_seconds) + ", \"cells_done\": " +
           fmt_num(static_cast<double>(s.cells_done)) + ", \"executed\": " +
           fmt_num(static_cast<double>(s.executed)) +
           ", \"mutants_per_second\": " + fmt_num(s.mutants_per_second) +
           ", \"harness_faults\": " +
           fmt_num(static_cast<double>(s.harness_faults)) +
           ", \"cells_poisoned\": " +
           fmt_num(static_cast<double>(s.cells_poisoned)) +
           ", \"rlimit_kills\": " +
           fmt_num(static_cast<double>(s.counter("cell.rlimit_kills"))) +
           ", \"model_faults\": " +
           fmt_num(static_cast<double>(s.counter("fuzz.model_faults"))) +
           ", \"reprobes\": " +
           fmt_num(static_cast<double>(s.counter("poison.reprobes"))) +
           ", \"rehabilitated\": " +
           fmt_num(static_cast<double>(s.counter("poison.rehabilitated"))) +
           ", \"lost_leases\": " +
           fmt_num(static_cast<double>(s.counter("lease.lost"))) +
           ", \"in_flight\": [";
    for (std::size_t j = 0; j < s.in_flight.size(); ++j) {
      if (j != 0) out += ", ";
      out += fmt_num(static_cast<double>(s.in_flight[j]));
    }
    out += "]}";
    out += i + 1 < fleet.shards.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace iris::campaign
