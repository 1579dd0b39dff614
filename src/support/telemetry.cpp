#include "support/telemetry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

#include "support/fs_atomic.h"
#include "support/retry.h"

namespace iris::support {
namespace {

constexpr std::size_t kMaxCounters = 128;
constexpr std::size_t kMaxGauges = 32;
constexpr std::size_t kMaxHistograms = 32;
constexpr std::size_t kMaxBounds = 16;

/// Default latency buckets, in microseconds: sub-microsecond resets up
/// through multi-second sandboxed cells.
constexpr std::array<double, kMaxBounds> kDefaultBoundsUs = {
    1,    2,    5,     10,    25,    50,     100,    250,
    500,  1000, 2500,  5000,  10000, 25000,  100000, 1000000};

/// Per-thread metric storage. Written by exactly one thread (relaxed
/// stores), read by snapshot() from any thread (relaxed loads): counts
/// may lag by an in-flight add, which is fine for observability.
struct alignas(64) Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms*(kMaxBounds + 1)>
      hist_buckets{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_counts{};
  std::array<std::atomic<double>, kMaxHistograms> hist_sums{};
};

/// Plain (mutex-guarded) accumulator for the shards of joined threads.
struct Retired {
  std::array<std::uint64_t, kMaxCounters> counters{};
  std::array<std::uint64_t, kMaxHistograms*(kMaxBounds + 1)> hist_buckets{};
  std::array<std::uint64_t, kMaxHistograms> hist_counts{};
  std::array<double, kMaxHistograms> hist_sums{};
};

/// Registries a thread-exit retirement may still touch, keyed by a
/// never-reused generation id (a heap address could be recycled by a
/// later registry; a generation cannot). A registry destroyed before
/// some thread exits simply loses that thread's unretired counts —
/// never a dangling dereference.
std::mutex& alive_mutex() {
  static auto* m = new std::mutex;
  return *m;
}
std::set<std::uint64_t>& alive_registries() {
  static auto* s = new std::set<std::uint64_t>;
  return *s;
}
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> gen{1};
  return gen.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<bool> g_forked_child{false};

const char* errno_label(int err) {
  switch (err) {
    case EINTR: return "EINTR";
    case EAGAIN: return "EAGAIN";
    case ESTALE: return "ESTALE";
    case EBUSY: return "EBUSY";
    case ETIMEDOUT: return "ETIMEDOUT";
    case ENOSPC: return "ENOSPC";
    case EACCES: return "EACCES";
    case EROFS: return "EROFS";
    case EIO: return "EIO";
    default: return "other";
  }
}

}  // namespace

std::string format_number(double value) {
  const auto integral = static_cast<long long>(value);
  if (static_cast<double>(integral) == value &&
      value > -9.0e15 && value < 9.0e15) {
    return std::to_string(integral);
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct MetricsRegistry::Impl {
  const std::uint64_t generation = next_generation();
  mutable std::mutex mutex;
  // Registration tables. Ids index these vectors and the shard arrays.
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  // Histogram bounds live in fixed storage: observe() reads them with
  // no lock, so they must never move. bound_counts is published with
  // release order after the values are written.
  std::array<std::array<double, kMaxBounds>, kMaxHistograms> hist_bounds{};
  std::array<std::atomic<std::uint32_t>, kMaxHistograms> hist_bound_counts{};
  // Values.
  std::array<std::atomic<double>, kMaxGauges> gauges{};
  std::vector<Shard*> live;  // owned; freed on retire or destruction
  Retired retired;

  MetricId register_name(std::vector<std::string>& names, std::size_t cap,
                         std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<MetricId>(i);
    }
    if (names.size() >= cap) return kInvalidMetric;
    names.emplace_back(name);
    return static_cast<MetricId>(names.size() - 1);
  }

  Shard* attach() {
    auto* shard = new Shard();
    const std::lock_guard<std::mutex> lock(mutex);
    live.push_back(shard);
    return shard;
  }

  /// Fold a dying thread's shard into the retired accumulator.
  void retire(Shard* shard) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      retired.counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < shard->hist_buckets.size(); ++i) {
      retired.hist_buckets[i] +=
          shard->hist_buckets[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxHistograms; ++i) {
      retired.hist_counts[i] +=
          shard->hist_counts[i].load(std::memory_order_relaxed);
      retired.hist_sums[i] += shard->hist_sums[i].load(std::memory_order_relaxed);
    }
    live.erase(std::remove(live.begin(), live.end(), shard), live.end());
    delete shard;
  }
};

namespace {

/// A thread's shard handles, one per registry it has touched, keyed by
/// registry generation (not address — addresses recycle). The
/// destructor retires each shard — if its registry is still alive.
struct TlsEntry {
  std::uint64_t generation = 0;
  MetricsRegistry::Impl* impl = nullptr;
  Shard* shard = nullptr;
};

struct TlsShards {
  std::vector<TlsEntry> entries;
  ~TlsShards() {
    for (const TlsEntry& entry : entries) {
      const std::lock_guard<std::mutex> lock(alive_mutex());
      if (alive_registries().count(entry.generation) != 0) {
        entry.impl->retire(entry.shard);
      }
    }
  }
};

Shard& local_shard(MetricsRegistry::Impl* impl) {
  thread_local TlsShards tls;
  for (const TlsEntry& entry : tls.entries) {
    if (entry.generation == impl->generation) return *entry.shard;
  }
  Shard* shard = impl->attach();
  tls.entries.push_back(TlsEntry{impl->generation, impl, shard});
  return *shard;
}

}  // namespace

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {
  const std::lock_guard<std::mutex> lock(alive_mutex());
  alive_registries().insert(impl_->generation);
}

MetricsRegistry::~MetricsRegistry() {
  {
    const std::lock_guard<std::mutex> lock(alive_mutex());
    alive_registries().erase(impl_->generation);
  }
  for (Shard* shard : impl_->live) delete shard;
  delete impl_;
}

MetricId MetricsRegistry::counter_id(std::string_view name) {
  if (in_forked_child()) return kInvalidMetric;
  return impl_->register_name(impl_->counter_names, kMaxCounters, name);
}

MetricId MetricsRegistry::gauge_id(std::string_view name) {
  if (in_forked_child()) return kInvalidMetric;
  return impl_->register_name(impl_->gauge_names, kMaxGauges, name);
}

MetricId MetricsRegistry::histogram_id(std::string_view name) {
  return histogram_id(name,
                      std::span(kDefaultBoundsUs.data(), kDefaultBoundsUs.size()));
}

MetricId MetricsRegistry::histogram_id(std::string_view name,
                                       std::span<const double> bounds) {
  if (in_forked_child()) return kInvalidMetric;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (std::size_t i = 0; i < impl_->hist_names.size(); ++i) {
    if (impl_->hist_names[i] == name) return static_cast<MetricId>(i);
  }
  if (impl_->hist_names.size() >= kMaxHistograms) return kInvalidMetric;
  const std::size_t id = impl_->hist_names.size();
  impl_->hist_names.emplace_back(name);
  std::vector<double> b(bounds.begin(), bounds.end());
  if (b.size() > kMaxBounds) b.resize(kMaxBounds);
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < b.size(); ++i) impl_->hist_bounds[id][i] = b[i];
  // Publish the bound count last: observe() reads it acquire, so it can
  // never see bounds mid-write.
  impl_->hist_bound_counts[id].store(static_cast<std::uint32_t>(b.size()),
                                     std::memory_order_release);
  return static_cast<MetricId>(id);
}

void MetricsRegistry::add(MetricId counter, std::uint64_t delta) noexcept {
  if (counter >= kMaxCounters || in_forked_child()) return;
  local_shard(impl_).counters[counter].fetch_add(delta,
                                                 std::memory_order_relaxed);
}

void MetricsRegistry::set_gauge(MetricId gauge, double value) noexcept {
  if (gauge >= kMaxGauges) return;
  impl_->gauges[gauge].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::observe(MetricId histogram, double value) noexcept {
  if (histogram >= kMaxHistograms || in_forked_child()) return;
  const std::uint32_t bound_count =
      impl_->hist_bound_counts[histogram].load(std::memory_order_acquire);
  if (bound_count == 0) return;  // unregistered id
  Shard& shard = local_shard(impl_);
  std::size_t bucket = kMaxBounds;  // overflow slot
  for (std::size_t i = 0; i < bound_count; ++i) {
    if (value <= impl_->hist_bounds[histogram][i]) {
      bucket = i;
      break;
    }
  }
  shard.hist_buckets[histogram * (kMaxBounds + 1) + bucket].fetch_add(
      1, std::memory_order_relaxed);
  shard.hist_counts[histogram].fetch_add(1, std::memory_order_relaxed);
  // fetch_add(double) is C++20-optional in practice; a CAS loop is
  // portable and this path is not the mutant hot loop.
  double sum = shard.hist_sums[histogram].load(std::memory_order_relaxed);
  while (!shard.hist_sums[histogram].compare_exchange_weak(
      sum, sum + value, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  Retired merged = impl_->retired;
  for (const Shard* shard : impl_->live) {
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      merged.counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < shard->hist_buckets.size(); ++i) {
      merged.hist_buckets[i] +=
          shard->hist_buckets[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxHistograms; ++i) {
      merged.hist_counts[i] +=
          shard->hist_counts[i].load(std::memory_order_relaxed);
      merged.hist_sums[i] += shard->hist_sums[i].load(std::memory_order_relaxed);
    }
  }
  out.counters.reserve(impl_->counter_names.size());
  for (std::size_t i = 0; i < impl_->counter_names.size(); ++i) {
    out.counters.emplace_back(impl_->counter_names[i], merged.counters[i]);
  }
  for (std::size_t i = 0; i < impl_->gauge_names.size(); ++i) {
    out.gauges.emplace_back(impl_->gauge_names[i],
                            impl_->gauges[i].load(std::memory_order_relaxed));
  }
  for (std::size_t i = 0; i < impl_->hist_names.size(); ++i) {
    MetricsSnapshot::Histogram hist;
    hist.name = impl_->hist_names[i];
    const std::uint32_t bound_count =
        impl_->hist_bound_counts[i].load(std::memory_order_acquire);
    hist.bounds.assign(impl_->hist_bounds[i].begin(),
                       impl_->hist_bounds[i].begin() + bound_count);
    hist.buckets.resize(hist.bounds.size() + 1);
    for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
      hist.buckets[b] = merged.hist_buckets[i * (kMaxBounds + 1) + b];
    }
    hist.buckets.back() = merged.hist_buckets[i * (kMaxBounds + 1) + kMaxBounds];
    hist.count = merged.hist_counts[i];
    hist.sum = merged.hist_sums[i];
    out.histograms.push_back(std::move(hist));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

void MetricsRegistry::reset_values() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->retired = Retired{};
  for (auto& gauge : impl_->gauges) gauge.store(0.0, std::memory_order_relaxed);
  for (Shard* shard : impl_->live) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& b : shard->hist_buckets) b.store(0, std::memory_order_relaxed);
    for (auto& c : shard->hist_counts) c.store(0, std::memory_order_relaxed);
    for (auto& s : shard->hist_sums) s.store(0.0, std::memory_order_relaxed);
  }
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

MetricsRegistry& metrics() {
  // Deliberately immortal: worker threads retire their shards at thread
  // exit, which must never race static destruction.
  static auto* registry = new MetricsRegistry();
  return *registry;
}

void note_forked_child() noexcept {
  g_forked_child.store(true, std::memory_order_relaxed);
}

bool in_forked_child() noexcept {
  return g_forked_child.load(std::memory_order_relaxed);
}

void note_io_retry(int sys_errno) {
  auto& reg = metrics();
  static const MetricId total = reg.counter_id("retry.attempts");
  reg.add(total);
  char name[40];
  std::snprintf(name, sizeof(name), "retry.errno.%s", errno_label(sys_errno));
  reg.add(reg.counter_id(name));
}

// --- Trace sink ------------------------------------------------------

namespace {

struct TraceSink {
  std::mutex mutex;
  std::FILE* file = nullptr;
  std::string shard;
  std::uint64_t seq = 0;
  std::chrono::steady_clock::time_point epoch;
};

TraceSink& sink() {
  static auto* s = new TraceSink();
  return *s;
}

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> active{false};
  return active;
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TraceEvent& TraceEvent::num(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), format_number(value));
  return *this;
}

TraceEvent& TraceEvent::str(std::string_view key, std::string_view value) {
  std::string quoted = json_escape(value);
  quoted.insert(0, 1, '"');
  quoted += '"';
  fields_.emplace_back(std::string(key), std::move(quoted));
  return *this;
}

Status set_trace_path(const std::string& path, std::string_view shard_label) {
  TraceSink& s = sink();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file != nullptr) {
    std::fclose(s.file);
    s.file = nullptr;
  }
  trace_flag().store(false, std::memory_order_release);
  if (path.empty()) return {};
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Error{95, "cannot open trace stream " + path, errno};
  }
  s.file = f;
  s.shard = std::string(shard_label);
  s.seq = 0;
  s.epoch = std::chrono::steady_clock::now();
  trace_flag().store(true, std::memory_order_release);
  return {};
}

bool trace_active() noexcept {
  return trace_flag().load(std::memory_order_relaxed);
}

void trace(TraceEvent&& event) {
  if (!trace_active()) return;
  auto& reg = metrics();
  static const MetricId events_counter = reg.counter_id("trace.events");
  static const MetricId dropped_counter = reg.counter_id("trace.dropped");

  TraceSink& s = sink();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file == nullptr) return;  // lost a race with set_trace_path("")
  const double ts_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - s.epoch)
          .count();
  std::string line = "{\"seq\":" + std::to_string(++s.seq) +
                     ",\"ts_us\":" + format_number(ts_us) + ",\"event\":\"" +
                     json_escape(event.event()) + "\"";
  if (!s.shard.empty()) line += ",\"shard\":\"" + json_escape(s.shard) + "\"";
  for (const auto& [key, value] : event.fields()) {
    line += ",\"" + json_escape(key) + "\":" + value;
  }
  line += "}\n";

  // Same discipline as the checkpoint journal: transient errnos retried
  // with deterministic backoff; a permanent failure degrades the sink
  // (tracing off, one warning) instead of surfacing into the campaign.
  const auto write_once = [&]() -> Status {
    errno = 0;
    if (std::fwrite(line.data(), 1, line.size(), s.file) != line.size() ||
        std::fflush(s.file) != 0) {
      return Error{96, "trace append failed", errno};
    }
    return {};
  };
  if (const auto status = retry_io(RetryPolicy{}, write_once); !status.ok()) {
    std::fprintf(stderr, "telemetry: trace stream degraded: %s (errno %d)\n",
                 status.error().message.c_str(), status.error().sys_errno);
    std::fclose(s.file);
    s.file = nullptr;
    trace_flag().store(false, std::memory_order_release);
    reg.add(dropped_counter);
    return;
  }
  reg.add(events_counter);
}

// --- Flat JSON parsing ----------------------------------------------

namespace {

struct JsonCursor {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }
};

bool parse_json_string(JsonCursor& cur, std::string& out) {
  if (!cur.eat('"')) return false;
  out.clear();
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return true;
    if (c == '\\') {
      if (cur.pos >= cur.text.size()) return false;
      const char esc = cur.text[cur.pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (cur.pos + 4 > cur.text.size()) return false;
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = cur.text[cur.pos++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // This layer only emits \u for control characters.
          out += static_cast<char>(value & 0xFF);
          break;
        }
        default: return false;
      }
    } else {
      out += c;
    }
  }
  return false;
}

bool parse_json_number(JsonCursor& cur, double& out) {
  cur.skip_ws();
  const std::size_t start = cur.pos;
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos];
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
        c == 'e' || c == 'E') {
      ++cur.pos;
    } else {
      break;
    }
  }
  if (cur.pos == start) return false;
  const std::string literal(cur.text.substr(start, cur.pos - start));
  char* end = nullptr;
  out = std::strtod(literal.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_scalar(JsonCursor& cur, FlatJson::Scalar& out) {
  cur.skip_ws();
  if (cur.peek('"')) {
    out.is_string = true;
    return parse_json_string(cur, out.text);
  }
  // true/false/null appear in no file this layer writes; reject them.
  out.is_string = false;
  const std::size_t start = cur.pos;
  if (!parse_json_number(cur, out.value)) return false;
  // Keep the number's literal text (as the header documents), not a
  // re-render through double: full 64-bit values (guest rips, VMCS
  // writes in forensic records) must survive for consumers that
  // re-parse the text with strtoull.
  out.text = std::string(cur.text.substr(start, cur.pos - start));
  return true;
}

}  // namespace

const FlatJson::Scalar* FlatJson::find(std::string_view key) const {
  for (const auto& [k, v] : scalars) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> FlatJson::num(std::string_view key) const {
  const Scalar* s = find(key);
  if (s == nullptr || s->is_string) return std::nullopt;
  return s->value;
}

std::optional<std::string_view> FlatJson::str(std::string_view key) const {
  const Scalar* s = find(key);
  if (s == nullptr || !s->is_string) return std::nullopt;
  return std::string_view(s->text);
}

const std::vector<double>* FlatJson::array(std::string_view key) const {
  for (const auto& [k, v] : arrays) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<FlatJson> FlatJson::parse(std::string_view text) {
  FlatJson out;
  JsonCursor cur{text};
  if (!cur.eat('{')) return Error{97, "flat json: expected '{'"};
  if (cur.eat('}')) return out;
  for (;;) {
    std::string key;
    if (!parse_json_string(cur, key)) return Error{97, "flat json: bad key"};
    if (!cur.eat(':')) return Error{97, "flat json: expected ':'"};
    cur.skip_ws();
    if (cur.peek('[')) {
      cur.eat('[');
      std::vector<double> values;
      if (!cur.peek(']')) {
        do {
          double v = 0.0;
          if (!parse_json_number(cur, v)) {
            return Error{97, "flat json: bad array element"};
          }
          values.push_back(v);
        } while (cur.eat(','));
      }
      if (!cur.eat(']')) return Error{97, "flat json: expected ']'"};
      out.arrays.emplace_back(std::move(key), std::move(values));
    } else if (cur.peek('{')) {
      cur.eat('{');
      if (!cur.peek('}')) {
        do {
          std::string child;
          if (!parse_json_string(cur, child)) {
            return Error{97, "flat json: bad nested key"};
          }
          if (!cur.eat(':')) return Error{97, "flat json: expected ':'"};
          Scalar scalar;
          if (!parse_scalar(cur, scalar)) {
            return Error{97, "flat json: bad nested value"};
          }
          out.scalars.emplace_back(key + "/" + child, std::move(scalar));
        } while (cur.eat(','));
      }
      if (!cur.eat('}')) return Error{97, "flat json: expected '}'"};
    } else {
      Scalar scalar;
      if (!parse_scalar(cur, scalar)) return Error{97, "flat json: bad value"};
      out.scalars.emplace_back(std::move(key), std::move(scalar));
    }
    if (cur.eat(',')) continue;
    if (cur.eat('}')) break;
    return Error{97, "flat json: expected ',' or '}'"};
  }
  return out;
}

// --- Trace reading ---------------------------------------------------

const std::string* ParsedTraceEvent::field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> ParsedTraceEvent::num(std::string_view key) const {
  const std::string* raw = field(key);
  if (raw == nullptr) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str()) return std::nullopt;
  return value;
}

Result<TraceFile> read_trace(const std::string& path) {
  const auto bytes = read_file_bytes(path);
  if (!bytes.ok()) {
    return Error{98, "cannot open trace stream " + path, bytes.error().sys_errno};
  }
  const std::string_view data(reinterpret_cast<const char*>(bytes.value().data()),
                              bytes.value().size());
  TraceFile out;
  std::size_t start = 0;
  std::uint64_t last_seq = 0;
  while (start < data.size()) {
    const std::size_t nl = data.find('\n', start);
    if (nl == std::string::npos) {
      // Torn tail: a live (or killed) writer mid-line. Tolerated, like
      // the checkpoint journal's torn-tail rule.
      out.torn_tail = true;
      break;
    }
    const std::string_view line(data.data() + start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    auto parsed = FlatJson::parse(line);
    if (!parsed.ok()) {
      ++out.skipped_lines;
      continue;
    }
    const FlatJson& json = parsed.value();
    ParsedTraceEvent event;
    const auto name = json.str("event");
    if (!name) {
      ++out.skipped_lines;
      continue;
    }
    event.event = std::string(*name);
    event.seq = static_cast<std::uint64_t>(json.num("seq").value_or(0.0));
    event.ts_us = json.num("ts_us").value_or(0.0);
    for (const auto& [key, scalar] : json.scalars) {
      event.fields.emplace_back(key, scalar.text);
    }
    // Gap accounting: each sink numbers its events 1,2,3,..., so a
    // forward jump means lines this stream lost (a skipped corrupt line
    // also leaves a gap — both are real losses to a consumer). A seq
    // that moves backwards is a sink reinstall (shard relaunch appending
    // to the same file), which restarts the numbering, not a loss.
    if (event.seq != 0) {
      if (last_seq != 0 && event.seq > last_seq + 1) {
        out.seq_gaps += event.seq - last_seq - 1;
      }
      last_seq = event.seq;
    }
    out.events.push_back(std::move(event));
  }
  return out;
}

}  // namespace iris::support
