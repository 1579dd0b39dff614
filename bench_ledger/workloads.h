// The three bench_ledger workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"

namespace ledger {

/// What one round of a workload produced.
struct RoundOutcome {
  double wall_s = 0.0;
  /// VM exits the hypervisor handled in the round: recorded exits, walk
  /// and baseline seeds, mutants, replayed seeds.
  double exits = 0.0;
  /// One latency per scheduled unit (a grid cell, or one guest
  /// workload's record-to-replay pipeline).
  std::vector<double> cell_ms;
  /// Hash of everything the round computed; equal across rounds.
  std::uint64_t hash = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Per-round samples of workload-specific end-to-end metrics and of
  /// per-layer metrics the product reports itself, keyed "name|unit".
  std::map<std::string, double> extra;
  std::map<std::string, double> layer;
  /// Values pinned in oracles.json for the benchmark's reference seed.
  std::map<std::string, std::string> oracle;
};

/// Shared state of one workload process.
struct RunContext {
  std::uint64_t seed = 42;
  std::string dir;  ///< scratch directory owned by this run
  bool correct = true;

  /// Report a failed correctness check on stderr and mark the run wrong.
  void mismatch(const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Rounds a run makes when no --seconds budget is given.
  [[nodiscard]] virtual std::size_t fixed_rounds() const = 0;
  /// One cold set-up of the stack the workload's rounds start from;
  /// returns seconds.
  virtual double setup() = 0;
  /// One round through the product's public entry points.
  virtual RoundOutcome round() = 0;
  /// The untraced execution the traced round replicates (its wall time
  /// is the base of trace_overhead_pct, its hash the replica's oracle).
  virtual RoundOutcome reference_round() { return round(); }
  /// One round through the traced replicas; wall_s covers the replica.
  virtual RoundOutcome traced_round(Tracer& tracer) = 0;
};

inline constexpr const char* kWorkloadNames[] = {"table1-hot", "campaign-contained",
                                                 "record-replay"};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, RunContext& ctx);

}  // namespace ledger
