#include "support/failpoints.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "support/flight_recorder.h"
#include "support/serialize.h"
#include "support/telemetry.h"

namespace iris::support::failpoints {
namespace {

struct Rule {
  std::string site;
  Hit hit;
  std::uint64_t cell = kAnyIndex;  ///< kAnyIndex = any cell
  std::uint64_t after = 0;         ///< skip the first N matching hits
  std::uint64_t count = ~0ULL;     ///< fire at most this many times
  std::size_t counter_slot = 0;    ///< index into the shared counter page
};

constexpr std::size_t kMaxRules = 64;

/// Hit counters shared across fork() so child retries observe the
/// counts their dead siblings accumulated — and so model-layer sites
/// evaluated *inside* a child leave their counts visible to the parent
/// and to every later child. One page, mapped once.
struct SharedCounters {
  std::uint64_t slots[kMaxRules];
};

SharedCounters* shared_counters() {
  static SharedCounters* page = [] {
    void* mem = ::mmap(nullptr, sizeof(SharedCounters),
                       PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                       -1, 0);
    if (mem == MAP_FAILED) {
      // Degrade to process-local counters: failpoints still work, only
      // cross-fork count sharing is lost.
      static SharedCounters local{};
      return &local;
    }
    return static_cast<SharedCounters*>(mem);
  }();
  return page;
}

/// Immutable once published. Readers chase table_ptr() lock-free, so a
/// child forked while some other thread held table_mutex() can still
/// evaluate sites; writers serialize on the mutex and retire the old
/// table into a graveyard instead of freeing it (a reader may still be
/// walking it — the leak is bounded by the number of configure calls
/// and keeps LeakSanitizer quiet because the graveyard stays reachable).
struct RuleTable {
  std::vector<Rule> rules;
};

std::mutex& table_mutex() {
  static std::mutex m;
  return m;
}

std::atomic<const RuleTable*>& table_ptr() {
  static std::atomic<const RuleTable*> ptr{nullptr};
  return ptr;
}

std::vector<const RuleTable*>& graveyard() {
  // Immortal, like the tables it holds: a static vector would be
  // destroyed at exit, before LeakSanitizer's check, orphaning them.
  static auto* retired = new std::vector<const RuleTable*>;
  return *retired;
}

struct NamedInt {
  const char* name;
  int value;
};

constexpr NamedInt kErrnos[] = {
    {"ENOSPC", ENOSPC}, {"EINTR", EINTR}, {"ESTALE", ESTALE},
    {"EIO", EIO},       {"EAGAIN", EAGAIN}, {"EACCES", EACCES},
    {"EROFS", EROFS},   {"EBUSY", EBUSY},
};

constexpr NamedInt kSignals[] = {
    {"SEGV", SIGSEGV}, {"ABRT", SIGABRT}, {"BUS", SIGBUS},
    {"KILL", SIGKILL}, {"ILL", SIGILL},   {"TERM", SIGTERM},
};

std::optional<int> lookup(std::span<const NamedInt> table,
                          std::string_view name) {
  for (const auto& entry : table) {
    if (name == entry.name) return entry.value;
  }
  return std::nullopt;
}

const char* errno_name(int err) {
  for (const auto& entry : kErrnos) {
    if (entry.value == err) return entry.name;
  }
  return "errno";
}

Result<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return Error{91, "failpoints: empty number"};
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return Error{91, "failpoints: bad number '" + std::string(text) + "'"};
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

Result<Rule> parse_rule(std::string_view text) {
  Rule rule;
  bool have_action = false;
  std::size_t start = 0;
  bool first = true;
  while (start <= text.size()) {
    std::size_t colon = text.find(':', start);
    if (colon == std::string_view::npos) colon = text.size();
    const std::string_view clause = text.substr(start, colon - start);
    start = colon + 1;
    if (clause.empty()) continue;
    if (first) {
      rule.site = std::string(clause);
      first = false;
      continue;
    }
    const std::size_t eq = clause.find('=');
    const std::string_view key = clause.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{}
                                     : clause.substr(eq + 1);
    if (key == "errno") {
      const auto err = lookup(kErrnos, value);
      if (!err) {
        return Error{91, "failpoints: unknown errno '" + std::string(value) +
                             "' (supported: ENOSPC EINTR ESTALE EIO EAGAIN "
                             "EACCES EROFS EBUSY)"};
      }
      rule.hit = Hit{Hit::Action::kErrno, *err, 0};
      have_action = true;
    } else if (key == "signal") {
      const auto sig = lookup(kSignals, value);
      if (!sig) {
        return Error{91, "failpoints: unknown signal '" + std::string(value) +
                             "' (supported: SEGV ABRT BUS KILL ILL TERM)"};
      }
      rule.hit = Hit{Hit::Action::kSignal, *sig, 0};
      have_action = true;
    } else if (key == "hang") {
      rule.hit = Hit{Hit::Action::kHang, 0, 0};
      have_action = true;
    } else if (key == "exit") {
      auto code = parse_u64(value);
      if (!code.ok()) return code.error();
      rule.hit = Hit{Hit::Action::kExit, static_cast<int>(code.value()), 0};
      have_action = true;
    } else if (key == "alloc") {
      auto bytes = parse_u64(value);
      if (!bytes.ok()) return bytes.error();
      rule.hit = Hit{Hit::Action::kAlloc, 0, bytes.value()};
      have_action = true;
    } else if (key == "modelfault") {
      rule.hit = Hit{Hit::Action::kModelFault, 0, 0};
      have_action = true;
    } else if (key == "cell") {
      auto cell = parse_u64(value);
      if (!cell.ok()) return cell.error();
      rule.cell = cell.value();
    } else if (key == "after") {
      auto after = parse_u64(value);
      if (!after.ok()) return after.error();
      rule.after = after.value();
    } else if (key == "count") {
      auto count = parse_u64(value);
      if (!count.ok()) return count.error();
      rule.count = count.value();
    } else {
      return Error{91, "failpoints: unknown clause '" + std::string(clause) +
                           "' in rule for site '" + rule.site + "'"};
    }
  }
  if (rule.site.empty()) return Error{91, "failpoints: rule without a site"};
  if (!have_action) {
    return Error{91, "failpoints: rule for site '" + rule.site +
                         "' has no action (errno=/signal=/hang/exit=/alloc=/"
                         "modelfault)"};
  }
  return rule;
}

}  // namespace

Status configure(std::string_view spec) {
  std::vector<Rule> parsed;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t semi = spec.find(';', start);
    if (semi == std::string_view::npos) semi = spec.size();
    const std::string_view text = spec.substr(start, semi - start);
    start = semi + 1;
    if (text.empty()) continue;
    auto rule = parse_rule(text);
    if (!rule.ok()) return rule.error();
    if (parsed.size() >= kMaxRules) {
      return Error{91, "failpoints: more than 64 rules"};
    }
    parsed.push_back(std::move(rule).take());
  }
  const std::lock_guard<std::mutex> lock(table_mutex());
  SharedCounters* counters = shared_counters();
  std::uint8_t armed = parsed.empty() ? 0 : kArmedAny;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    parsed[i].counter_slot = i;
    counters->slots[i] = 0;
    if (parsed[i].site.starts_with("model_")) armed |= kArmedModel;
  }
  auto* fresh = new RuleTable{std::move(parsed)};
  if (const RuleTable* old =
          table_ptr().exchange(fresh, std::memory_order_acq_rel)) {
    graveyard().push_back(old);  // a reader may still hold it
  }
  g_armed.store(armed, std::memory_order_release);
  return {};
}

namespace {

/// IRIS_FAILPOINTS is armed during static initialization, before main()
/// reads any gate, so every later configure() replaces its rules.
[[maybe_unused]] const bool g_env_loaded = [] {
  const char* spec = std::getenv("IRIS_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return false;
  if (const auto status = configure(spec); !status.ok()) {
    std::fprintf(stderr, "IRIS_FAILPOINTS ignored: %s\n",
                 status.error().message.c_str());
  }
  return true;
}();

}  // namespace

void clear() { (void)configure({}); }

bool active() noexcept {
  return g_armed.load(std::memory_order_acquire) != 0;
}

std::optional<Hit> evaluate(std::string_view site, std::uint64_t index) {
  if (!active()) return std::nullopt;
  const RuleTable* table = table_ptr().load(std::memory_order_acquire);
  if (table == nullptr) return std::nullopt;
  SharedCounters* counters = shared_counters();
  for (const Rule& rule : table->rules) {
    if (rule.site != site) continue;
    if (rule.cell != kAnyIndex && rule.cell != index) continue;
    // One shared counter per rule: hit number h fires iff
    // after < h <= after + count. __atomic on the shared page keeps the
    // count coherent across forked children.
    const std::uint64_t hit = __atomic_add_fetch(
        &counters->slots[rule.counter_slot], 1, __ATOMIC_RELAXED);
    if (hit <= rule.after) continue;
    // Subtract-compare, not after+count: the unbounded default count
    // (~0) must not wrap the window shut.
    if (hit - rule.after > rule.count) continue;
    // A forked child's registry calls are dropped (see
    // note_forked_child); the shared hit counter above already recorded
    // the fact that matters.
    auto& reg = metrics();
    static const MetricId hits = reg.counter_id("failpoints.hits");
    reg.add(hits);
    if (flight_recorder_armed()) [[unlikely]] {
      // Breadcrumb the firing site: the hash keys it, and a mirrored
      // log line keeps the name human-readable in the forensic dump.
      crumb_failpoint_hit(
          fnv1a(std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(site.data()), site.size())),
          static_cast<std::uint64_t>(rule.hit.action));
    }
    return rule.hit;
  }
  return std::nullopt;
}

std::optional<Error> fs_error(std::string_view site, std::uint64_t index) {
  const auto hit = evaluate(site, index);
  if (!hit) return std::nullopt;
  if (hit->action == Hit::Action::kErrno) {
    return Error{90,
                 "injected " + std::string(site) + " failure (" +
                     errno_name(hit->detail) + ")",
                 hit->detail};
  }
  execute_fatal(*hit);
  // Only kAlloc returns from execute_fatal: the helper proceeds (under
  // memory pressure) as if the site had not fired.
  return std::nullopt;
}

void execute_fatal(const Hit& hit) {
  switch (hit.action) {
    case Hit::Action::kSignal:
      ::raise(hit.detail);
      // An ignored/handled signal must still be fatal — the rule asked
      // for a dead process, and the containment layer under test needs
      // one.
      ::_exit(128 + hit.detail);
    case Hit::Action::kExit:
      ::_exit(hit.detail);
    case Hit::Action::kHang:
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    case Hit::Action::kAlloc:
      execute_alloc(hit.amount);
      return;  // survived the runaway: the cell proceeds
    case Hit::Action::kModelFault:
      // A modelfault action outside a model site (e.g. armed on
      // cell_exec) has no structured fault to raise; treat it as a
      // protocol-visible death so the rule still kills the child.
      ::_exit(125);
    case Hit::Action::kErrno:
      break;
  }
  ::_exit(125);  // unreachable for well-formed hits
}

void execute_alloc(std::uint64_t bytes) {
  // Chunks stay reachable via a static keeper: the "runaway" is real
  // resident growth, not an optimizable leak, and LeakSanitizer sees
  // reachable memory, not a report.
  static std::vector<void*>& keeper = *new std::vector<void*>();
  constexpr std::uint64_t kChunk = 1ULL << 20;
  std::uint64_t total = 0;
  while (total < bytes) {
    void* chunk = std::malloc(static_cast<std::size_t>(kChunk));
    if (chunk == nullptr) ::_exit(kResourceExhaustedExit);
    std::memset(chunk, 0xA5, static_cast<std::size_t>(kChunk));
    keeper.push_back(chunk);
    total += kChunk;
  }
}

}  // namespace iris::support::failpoints
