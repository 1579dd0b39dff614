#include "iris/recorder.h"

#include <algorithm>

namespace iris {
namespace {

/// Cap on VMCS items captured per seed (the paper's pre-allocated worst
/// case: 32 VMCS operations, §VI-D).
constexpr std::size_t kMaxVmcsItems = 32;

}  // namespace

std::string_view to_string(CoverageSource source) noexcept {
  return source == CoverageSource::kGcov ? "gcov" : "Intel PT";
}

Recorder::Recorder(hv::Hypervisor& hv) : Recorder(hv, Config{}) {}

Recorder::Recorder(hv::Hypervisor& hv, Config config) : hv_(&hv), config_(config) {}

Recorder::~Recorder() {
  if (attached_) detach();
}

void Recorder::attach() {
  if (attached_) return;
  saved_ = hv_->hooks();
  auto& hooks = hv_->hooks();

  // Chain: previously installed hooks (e.g. the replayer's injection)
  // run first, then the recorder observes.
  const auto prev_start = saved_.on_exit_start;
  hooks.on_exit_start = [this, prev_start](hv::HvVcpu& vcpu) {
    if (prev_start) prev_start(vcpu);
    this->on_exit_start(vcpu);
  };
  const auto prev_read = saved_.on_vmread;
  hooks.on_vmread = [this, prev_read](vtx::VmcsField f, std::uint64_t v) {
    if (prev_read) prev_read(f, v);
    this->on_vmread(f, v);
  };
  const auto prev_write = saved_.on_vmwrite;
  hooks.on_vmwrite = [this, prev_write](vtx::VmcsField f, std::uint64_t v) {
    if (prev_write) prev_write(f, v);
    this->on_vmwrite(f, v);
  };
  if (config_.record_guest_memory) {
    const auto prev_mem = saved_.on_guest_mem_read;
    hooks.on_guest_mem_read = [this, prev_mem](std::uint64_t gpa,
                                               std::span<const std::uint8_t> data) {
      if (prev_mem) prev_mem(gpa, data);
      this->on_mem_read(gpa, data);
    };
  }
  attached_ = true;
}

void Recorder::detach() {
  if (!attached_) return;
  hv_->hooks() = saved_;
  attached_ = false;
}

void Recorder::on_exit_start(hv::HvVcpu& vcpu) {
  // The paper's callback "at the start of the VM exit handler execution"
  // buffering the GPR block (§V-A). Coverage hits under kIris get
  // cleaned out of the per-exit block set.
  hv_->coverage().hit(hv::Component::kIris, 1, 4);
  if (in_exit_) {
    // An exit that never reached finish_exit: discard its open record.
    items_arena_.resize(cur_item_start_);
    mem_arena_.resize(cur_mem_start_);
    vmwrites_arena_.resize(cur_vmwrite_start_);
  }
  in_exit_ = true;
  cur_item_start_ = items_arena_.size();
  cur_mem_start_ = mem_arena_.size();
  cur_vmwrite_start_ = vmwrites_arena_.size();
  cur_vmcs_count_ = 0;

  for (int i = 0; i < vcpu::kNumGprs; ++i) {
    items_arena_.push_back(SeedItem{SeedItemKind::kGpr,
                                    static_cast<std::uint8_t>(i),
                                    vcpu.saved_gprs[static_cast<std::size_t>(i)]});
  }
  const std::uint64_t cost =
      hv_->costs().record_callback_per_item * vcpu::kNumGprs;
  hv_->clock().advance(cost);
  overhead_cycles_ += cost;
}

void Recorder::on_vmread(vtx::VmcsField field, std::uint64_t value) {
  if (!in_exit_) return;
  hv_->coverage().hit(hv::Component::kIris, 2, 2);
  if (cur_vmcs_count_ >= kMaxVmcsItems) return;
  const auto compact = vtx::compact_index(field);
  if (!compact) return;
  // Each field at most once per exit: the first read wins, since later
  // reads of the same field see handler-written values.
  for (std::size_t i = cur_item_start_; i < items_arena_.size(); ++i) {
    const SeedItem& item = items_arena_[i];
    if (!item.is_gpr() && item.encoding == *compact) return;
  }
  items_arena_.push_back(SeedItem{SeedItemKind::kVmcsField, *compact, value});
  ++cur_vmcs_count_;
  hv_->clock().advance(hv_->costs().record_callback_per_item);
  overhead_cycles_ += hv_->costs().record_callback_per_item;
}

void Recorder::on_vmwrite(vtx::VmcsField field, std::uint64_t value) {
  if (!in_exit_) return;
  hv_->coverage().hit(hv::Component::kIris, 3, 2);
  vmwrites_arena_.emplace_back(field, value);
  hv_->clock().advance(hv_->costs().record_callback_per_item);
  overhead_cycles_ += hv_->costs().record_callback_per_item;
}

void Recorder::on_mem_read(std::uint64_t gpa, std::span<const std::uint8_t> data) {
  if (!in_exit_ || !config_.record_guest_memory) return;
  hv_->coverage().hit(hv::Component::kIris, 4, 3);
  if (mem_arena_.size() - cur_mem_start_ >= config_.max_memory_chunks) return;
  MemChunk chunk;
  chunk.gpa = gpa;
  const std::size_t len = std::min(data.size(), config_.max_chunk_bytes);
  chunk.bytes.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(len));
  mem_arena_.push_back(std::move(chunk));
  // EPT-assisted capture modeled as one callback per chunk (§IX).
  hv_->clock().advance(hv_->costs().record_callback_per_item * 4);
  overhead_cycles_ += hv_->costs().record_callback_per_item * 4;
}

void Recorder::finish_exit(const hv::HandleOutcome& outcome) {
  if (!in_exit_) return;
  in_exit_ = false;
  ExitRec rec;
  rec.reason = outcome.dispatched_reason;
  rec.item_start = static_cast<std::uint32_t>(cur_item_start_);
  rec.item_count =
      static_cast<std::uint32_t>(items_arena_.size() - cur_item_start_);
  rec.mem_start = static_cast<std::uint32_t>(cur_mem_start_);
  rec.mem_count = static_cast<std::uint32_t>(mem_arena_.size() - cur_mem_start_);
  rec.vmwrite_start = static_cast<std::uint32_t>(cur_vmwrite_start_);
  rec.vmwrite_count =
      static_cast<std::uint32_t>(vmwrites_arena_.size() - cur_vmwrite_start_);
  rec.cov_start = static_cast<std::uint32_t>(cov_arena_.size());
  cov_arena_.insert(cov_arena_.end(), outcome.coverage.blocks.begin(),
                    outcome.coverage.blocks.end());
  rec.cov_count = static_cast<std::uint32_t>(outcome.coverage.blocks.size());
  rec.cov_loc = outcome.coverage.loc;
  rec.cycles = outcome.cycles;
  if (config_.coverage_source == CoverageSource::kGcov) {
    // Bitmap export to the shared memory area (§V-A).
    hv_->clock().advance(hv_->costs().record_coverage_flush);
    overhead_cycles_ += hv_->costs().record_coverage_flush;
  } else {
    // Intel PT: the trace accrues in hardware; per exit IRIS only notes
    // the packet boundary (§IX estimates this as near-free).
    hv_->clock().advance(hv_->costs().record_coverage_flush / 8);
    overhead_cycles_ += hv_->costs().record_coverage_flush / 8;
  }
  exits_.push_back(rec);
}

VmBehavior Recorder::take_trace() {
  VmBehavior out;
  out.reserve(exits_.size());
  // Stamp every seed with the recording CPU's capability profile: the
  // campaign records once (under the baseline) and replays against many
  // profiles, so provenance must live in the seed, not the session.
  const vtx::ProfileId profile = hv_->capability_profile().id;
  for (const ExitRec& rec : exits_) {
    RecordedExit e;
    e.seed.reason = rec.reason;
    e.seed.profile = profile;
    e.seed.items.assign(items_arena_.begin() + rec.item_start,
                        items_arena_.begin() + rec.item_start + rec.item_count);
    e.seed.memory.assign(mem_arena_.begin() + rec.mem_start,
                         mem_arena_.begin() + rec.mem_start + rec.mem_count);
    e.metrics.vmwrites.assign(
        vmwrites_arena_.begin() + rec.vmwrite_start,
        vmwrites_arena_.begin() + rec.vmwrite_start + rec.vmwrite_count);
    e.metrics.coverage.blocks.assign(
        cov_arena_.begin() + rec.cov_start,
        cov_arena_.begin() + rec.cov_start + rec.cov_count);
    e.metrics.coverage.loc = rec.cov_loc;
    e.metrics.cycles = rec.cycles;
    out.push_back(std::move(e));
  }
  clear();
  return out;
}

void Recorder::clear() {
  items_arena_.clear();
  mem_arena_.clear();
  vmwrites_arena_.clear();
  cov_arena_.clear();
  exits_.clear();
  in_exit_ = false;
}

VmBehavior record_workload(hv::Hypervisor& hv, hv::Domain& dom, hv::HvVcpu& vcpu,
                           guest::GuestProgram& program, std::uint64_t n,
                           Recorder::Config config) {
  Recorder recorder(hv, config);
  recorder.attach();
  // The outcome buffer is reused across all n exits: with the recorder's
  // behavior-level arenas, the record loop is steady-state
  // allocation-free, matching the replay loop.
  hv::HandleOutcome outcome;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto exit = program.next(hv, dom, vcpu);
    hv.process_exit_into(dom, vcpu, exit, outcome);
    recorder.finish_exit(outcome);
    if (outcome.failure == hv::FailureKind::kHypervisorCrash ||
        outcome.failure == hv::FailureKind::kVmCrash) {
      break;
    }
  }
  recorder.detach();
  return recorder.take_trace();
}

}  // namespace iris
