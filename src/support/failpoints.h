// Deterministic failpoints: injectable faults for hermetic robustness
// tests.
//
// A fuzzer whose job is to surface faults must survive its own: torn
// journal appends, ENOSPC mid-campaign, harness cells that segfault or
// hang. None of those can be provoked reliably by real hardware in CI,
// so the campaign's filesystem helpers, the sandboxed cell executor,
// and the VM/emulator model layers consult named *failpoint sites*, and
// a test (or the IRIS_FAILPOINTS environment variable) arms rules
// against them:
//
//   IRIS_FAILPOINTS="checkpoint_append:errno=ENOSPC:after=100;
//                    cell_exec:signal=SEGV:cell=17;cell_exec:hang:cell=23"
//   (one string; shown wrapped here — whitespace around ';' is not part
//   of the grammar, so join the rules without it)
//
// Rule grammar (';'-separated rules, ':'-separated clauses):
//   <site>                 site the rule arms (first clause, mandatory)
//   errno=<NAME>           action: fail with this errno (ENOSPC, EINTR,
//                          ESTALE, EIO, EAGAIN, EACCES, EROFS, EBUSY)
//   signal=<NAME>          action: raise this signal in the evaluating
//                          process (SEGV, ABRT, BUS, KILL, ILL, TERM)
//   hang                   action: block forever (until a watchdog kills
//                          the process)
//   exit=<code>            action: _exit(code) immediately
//   alloc=<bytes>          action: allocate-and-touch this many bytes in
//                          1 MiB chunks (a deterministic memory runaway;
//                          under RLIMIT_AS the process dies with exit
//                          code kResourceExhaustedExit)
//   modelfault             action: raise a structured ModelFault at a
//                          model-layer site (see support/model_fault.h)
//   cell=<K>               filter: only for grid-cell index K
//   after=<N>              filter: skip the first N matching hits
//   count=<M>              filter: fire at most M times (then disarm)
//
// Hit counters live in a MAP_SHARED anonymous page, so rules keep their
// state across fork(): a `count=1` segfault injected into a sandboxed
// cell fires in the first child and is spent for the retry — exactly
// the transient-fault shape the containment layer must recover from.
// The same page serves the model-layer sites, which are evaluated
// *inside* the forked child: their counts survive into the parent and
// into every subsequent child.
//
// Model-layer sites (armed iff any rule names a site with the "model_"
// prefix; unarmed they cost one relaxed load, cheap enough for the
// VMCS hw_write hot path):
//   model_vmentry           vtx::VmxCpu VM entry, once per VMLAUNCH/
//                           VMRESUME whose control-field checks pass,
//                           whether the entry-check memo hits or not;
//                           and vtx::check_guest_state(const Vmcs&, ...)
//                           (the invalid-guest-state handler's re-check)
//   model_vmcs_write        vtx::Vmcs::hw_write, once per hardware write:
//                           the exit-info latch, the guest-state sync
//                           (one per field, in field order), seed
//                           injection of writable fields
//   model_ept_walk          mem::Ept::translate (per EPT walk)
//   model_snapshot_restore  mem::AddressSpace::restore_pages
//   model_pooled_reset      fuzz::PooledVm::reset (post-reset digest)
//
// The rule table itself is immutable once published and read through an
// atomic pointer, so evaluate() never takes a lock: a sandboxed child
// forked while another worker thread held the configure() mutex can
// still evaluate model sites without deadlocking.
//
// I/O sites are evaluated only on cold paths (per file operation, per
// sandboxed cell launch); with no rules configured every check is one
// relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/result.h"

namespace iris::support::failpoints {

/// What a fired rule wants done at the site.
struct Hit {
  enum class Action : std::uint8_t {
    kErrno,
    kSignal,
    kHang,
    kExit,
    kAlloc,
    kModelFault,
  };
  Action action = Action::kErrno;
  int detail = 0;            ///< errno value, signal number, or exit code
  std::uint64_t amount = 0;  ///< bytes to allocate (kAlloc)
};

/// Index wildcard for sites with no grid-cell identity.
inline constexpr std::uint64_t kAnyIndex = ~0ULL;

/// Exit code of a process that ran out of an injected or real resource
/// limit: execute_alloc() when allocation fails, and the sandbox
/// child's new-handler under RLIMIT_AS. The campaign parent classifies
/// it as HarnessFault::Kind::kResourceExhausted.
inline constexpr int kResourceExhaustedExit = 9;

/// Replace the active rule table with the parse of `spec` (empty spec =
/// disarm everything). Unknown sites are allowed — rules only fire where
/// a matching site is evaluated — but malformed clauses are errors.
/// The IRIS_FAILPOINTS rules are armed during static initialization,
/// before main() reads any gate, so a configure() call (a tool's
/// --failpoints flag, a test) always replaces them.
Status configure(std::string_view spec);

/// Disarm every rule.
void clear();

/// The rule table's armed state, published with the table: kArmedAny
/// when any rule is armed, plus kArmedModel when one names a
/// "model_"-prefixed site.
inline constexpr std::uint8_t kArmedAny = 1;
inline constexpr std::uint8_t kArmedModel = 2;
inline std::atomic<std::uint8_t> g_armed{0};

/// True if any rule is armed (cheap: one acquire load).
bool active() noexcept;

/// True if a rule names a model site. The model layers check this
/// inline before calling into evaluate(), so an unarmed build pays one
/// relaxed load on the VMCS write hot path.
inline bool model_sites_armed() noexcept {
  return (g_armed.load(std::memory_order_relaxed) & kArmedModel) != 0;
}

/// Evaluate `site`. Returns the action of the first armed rule whose
/// site and filters match, bumping its shared hit counter; nullopt
/// when nothing fires. `index` is the grid-cell index where one exists.
/// kHang is returned, never executed here — the caller decides where
/// blocking is survivable. kSignal/kExit are likewise returned so
/// process-fatal actions only ever run where the caller is a disposable
/// child. Lock-free: safe from a freshly forked child.
std::optional<Hit> evaluate(std::string_view site,
                            std::uint64_t index = kAnyIndex);

/// Filesystem-site convenience: evaluate, and turn an errno action into
/// the Error the helper should return (code 90, sys_errno set, message
/// naming the site and errno). Signal actions are raised in-process
/// (simulating a crash inside the helper); hang blocks; exit exits.
std::optional<Error> fs_error(std::string_view site,
                              std::uint64_t index = kAnyIndex);

/// Execute a non-errno hit: raise the signal, _exit, or block forever.
/// Used by the sandboxed cell path inside the forked child. kAlloc hits
/// run execute_alloc() and RETURN (the runaway may survive where no
/// rlimit is armed — the cell then proceeds under memory pressure).
void execute_fatal(const Hit& hit);

/// Deterministic memory runaway: allocate-and-touch `bytes` in 1 MiB
/// chunks, keeping every chunk reachable. If an allocation fails (the
/// intended outcome under RLIMIT_AS), _exit(kResourceExhaustedExit).
void execute_alloc(std::uint64_t bytes);

}  // namespace iris::support::failpoints
