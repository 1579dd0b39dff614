// VMCS field encodings, per Intel SDM Vol. 3, Appendix B.
//
// Every field the Vmcs models is listed once in IRIS_VMCS_FIELD_LIST with
// its architectural 16-bit encoding. Width and type are *derived* from the
// encoding bits exactly as the hardware does (SDM Table 24-17):
//   bits 14:13 — width   (0 = 16-bit, 1 = 64-bit, 2 = 32-bit, 3 = natural)
//   bits 11:10 — type    (0 = control, 1 = VM-exit information (read-only),
//                         2 = guest state, 3 = host state)
//   bit  0     — access  (0 = full; high-dword accesses are not modeled)
//
// The paper's seed record stores a 1-byte compact field index (§V-A,
// "encoding (1 byte) of ... VMCS fields (147 values)"); compact_index()
// provides that dense mapping, and field_from_compact() its inverse.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace iris::vtx {

// clang-format off
#define IRIS_VMCS_FIELD_LIST(X)                                     \
  /* --- 16-bit control fields --- */                                \
  X(kVpid,                     0x0000, "VPID")                       \
  X(kPostedIntrVector,         0x0002, "POSTED_INTR_NOTIFICATION_VECTOR") \
  X(kEptpIndex,                0x0004, "EPTP_INDEX")                 \
  /* --- 16-bit guest-state fields --- */                            \
  X(kGuestEsSelector,          0x0800, "GUEST_ES_SELECTOR")          \
  X(kGuestCsSelector,          0x0802, "GUEST_CS_SELECTOR")          \
  X(kGuestSsSelector,          0x0804, "GUEST_SS_SELECTOR")          \
  X(kGuestDsSelector,          0x0806, "GUEST_DS_SELECTOR")          \
  X(kGuestFsSelector,          0x0808, "GUEST_FS_SELECTOR")          \
  X(kGuestGsSelector,          0x080A, "GUEST_GS_SELECTOR")          \
  X(kGuestLdtrSelector,        0x080C, "GUEST_LDTR_SELECTOR")        \
  X(kGuestTrSelector,          0x080E, "GUEST_TR_SELECTOR")          \
  X(kGuestInterruptStatus,     0x0810, "GUEST_INTERRUPT_STATUS")     \
  X(kGuestPmlIndex,            0x0812, "GUEST_PML_INDEX")            \
  /* --- 16-bit host-state fields --- */                             \
  X(kHostEsSelector,           0x0C00, "HOST_ES_SELECTOR")           \
  X(kHostCsSelector,           0x0C02, "HOST_CS_SELECTOR")           \
  X(kHostSsSelector,           0x0C04, "HOST_SS_SELECTOR")           \
  X(kHostDsSelector,           0x0C06, "HOST_DS_SELECTOR")           \
  X(kHostFsSelector,           0x0C08, "HOST_FS_SELECTOR")           \
  X(kHostGsSelector,           0x0C0A, "HOST_GS_SELECTOR")           \
  X(kHostTrSelector,           0x0C0C, "HOST_TR_SELECTOR")           \
  /* --- 64-bit control fields --- */                                \
  X(kIoBitmapA,                0x2000, "IO_BITMAP_A")                \
  X(kIoBitmapB,                0x2002, "IO_BITMAP_B")                \
  X(kMsrBitmap,                0x2004, "MSR_BITMAP")                 \
  X(kExitMsrStoreAddr,         0x2006, "VM_EXIT_MSR_STORE_ADDR")     \
  X(kExitMsrLoadAddr,          0x2008, "VM_EXIT_MSR_LOAD_ADDR")      \
  X(kEntryMsrLoadAddr,         0x200A, "VM_ENTRY_MSR_LOAD_ADDR")     \
  X(kExecutiveVmcsPointer,     0x200C, "EXECUTIVE_VMCS_POINTER")     \
  X(kPmlAddress,               0x200E, "PML_ADDRESS")                \
  X(kTscOffset,                0x2010, "TSC_OFFSET")                 \
  X(kVirtualApicPageAddr,      0x2012, "VIRTUAL_APIC_PAGE_ADDR")     \
  X(kApicAccessAddr,           0x2014, "APIC_ACCESS_ADDR")           \
  X(kPostedIntrDescAddr,       0x2016, "POSTED_INTR_DESC_ADDR")      \
  X(kVmFunctionControl,        0x2018, "VM_FUNCTION_CONTROL")        \
  X(kEptPointer,               0x201A, "EPT_POINTER")                \
  X(kEoiExitBitmap0,           0x201C, "EOI_EXIT_BITMAP0")           \
  X(kEoiExitBitmap1,           0x201E, "EOI_EXIT_BITMAP1")           \
  X(kEoiExitBitmap2,           0x2020, "EOI_EXIT_BITMAP2")           \
  X(kEoiExitBitmap3,           0x2022, "EOI_EXIT_BITMAP3")           \
  X(kEptpListAddress,          0x2024, "EPTP_LIST_ADDRESS")          \
  X(kVmreadBitmap,             0x2026, "VMREAD_BITMAP")              \
  X(kVmwriteBitmap,            0x2028, "VMWRITE_BITMAP")             \
  X(kVirtExceptionInfoAddr,    0x202A, "VIRT_EXCEPTION_INFO_ADDR")   \
  X(kXssExitBitmap,            0x202C, "XSS_EXIT_BITMAP")            \
  X(kEnclsExitingBitmap,       0x202E, "ENCLS_EXITING_BITMAP")       \
  X(kTscMultiplier,            0x2032, "TSC_MULTIPLIER")             \
  /* --- 64-bit read-only data field --- */                          \
  X(kGuestPhysicalAddress,     0x2400, "GUEST_PHYSICAL_ADDRESS")     \
  /* --- 64-bit guest-state fields --- */                            \
  X(kVmcsLinkPointer,          0x2800, "VMCS_LINK_POINTER")          \
  X(kGuestIa32Debugctl,        0x2802, "GUEST_IA32_DEBUGCTL")        \
  X(kGuestIa32Pat,             0x2804, "GUEST_IA32_PAT")             \
  X(kGuestIa32Efer,            0x2806, "GUEST_IA32_EFER")            \
  X(kGuestIa32PerfGlobalCtrl,  0x2808, "GUEST_IA32_PERF_GLOBAL_CTRL")\
  X(kGuestPdpte0,              0x280A, "GUEST_PDPTE0")               \
  X(kGuestPdpte1,              0x280C, "GUEST_PDPTE1")               \
  X(kGuestPdpte2,              0x280E, "GUEST_PDPTE2")               \
  X(kGuestPdpte3,              0x2810, "GUEST_PDPTE3")               \
  X(kGuestBndcfgs,             0x2812, "GUEST_BNDCFGS")              \
  /* --- 64-bit host-state fields --- */                             \
  X(kHostIa32Pat,              0x2C00, "HOST_IA32_PAT")              \
  X(kHostIa32Efer,             0x2C02, "HOST_IA32_EFER")             \
  X(kHostIa32PerfGlobalCtrl,   0x2C04, "HOST_IA32_PERF_GLOBAL_CTRL") \
  /* --- 32-bit control fields --- */                                \
  X(kPinBasedVmExecControl,    0x4000, "PIN_BASED_VM_EXEC_CONTROL")  \
  X(kCpuBasedVmExecControl,    0x4002, "CPU_BASED_VM_EXEC_CONTROL")  \
  X(kExceptionBitmap,          0x4004, "EXCEPTION_BITMAP")           \
  X(kPageFaultErrorCodeMask,   0x4006, "PAGE_FAULT_ERROR_CODE_MASK") \
  X(kPageFaultErrorCodeMatch,  0x4008, "PAGE_FAULT_ERROR_CODE_MATCH")\
  X(kCr3TargetCount,           0x400A, "CR3_TARGET_COUNT")           \
  X(kVmExitControls,           0x400C, "VM_EXIT_CONTROLS")           \
  X(kVmExitMsrStoreCount,      0x400E, "VM_EXIT_MSR_STORE_COUNT")    \
  X(kVmExitMsrLoadCount,       0x4010, "VM_EXIT_MSR_LOAD_COUNT")     \
  X(kVmEntryControls,          0x4012, "VM_ENTRY_CONTROLS")          \
  X(kVmEntryMsrLoadCount,      0x4014, "VM_ENTRY_MSR_LOAD_COUNT")    \
  X(kVmEntryIntrInfoField,     0x4016, "VM_ENTRY_INTR_INFO")         \
  X(kVmEntryExceptionErrCode,  0x4018, "VM_ENTRY_EXCEPTION_ERROR_CODE") \
  X(kVmEntryInstructionLen,    0x401A, "VM_ENTRY_INSTRUCTION_LEN")   \
  X(kTprThreshold,             0x401C, "TPR_THRESHOLD")              \
  X(kSecondaryVmExecControl,   0x401E, "SECONDARY_VM_EXEC_CONTROL")  \
  X(kPleGap,                   0x4020, "PLE_GAP")                    \
  X(kPleWindow,                0x4022, "PLE_WINDOW")                 \
  /* --- 32-bit read-only data fields --- */                         \
  X(kVmInstructionError,       0x4400, "VM_INSTRUCTION_ERROR")       \
  X(kVmExitReason,             0x4402, "VM_EXIT_REASON")             \
  X(kVmExitIntrInfo,           0x4404, "VM_EXIT_INTR_INFO")          \
  X(kVmExitIntrErrorCode,      0x4406, "VM_EXIT_INTR_ERROR_CODE")    \
  X(kIdtVectoringInfoField,    0x4408, "IDT_VECTORING_INFO")         \
  X(kIdtVectoringErrorCode,    0x440A, "IDT_VECTORING_ERROR_CODE")   \
  X(kVmExitInstructionLen,     0x440C, "VM_EXIT_INSTRUCTION_LEN")    \
  X(kVmxInstructionInfo,       0x440E, "VMX_INSTRUCTION_INFO")       \
  /* --- 32-bit guest-state fields --- */                            \
  X(kGuestEsLimit,             0x4800, "GUEST_ES_LIMIT")             \
  X(kGuestCsLimit,             0x4802, "GUEST_CS_LIMIT")             \
  X(kGuestSsLimit,             0x4804, "GUEST_SS_LIMIT")             \
  X(kGuestDsLimit,             0x4806, "GUEST_DS_LIMIT")             \
  X(kGuestFsLimit,             0x4808, "GUEST_FS_LIMIT")             \
  X(kGuestGsLimit,             0x480A, "GUEST_GS_LIMIT")             \
  X(kGuestLdtrLimit,           0x480C, "GUEST_LDTR_LIMIT")           \
  X(kGuestTrLimit,             0x480E, "GUEST_TR_LIMIT")             \
  X(kGuestGdtrLimit,           0x4810, "GUEST_GDTR_LIMIT")           \
  X(kGuestIdtrLimit,           0x4812, "GUEST_IDTR_LIMIT")           \
  X(kGuestEsArBytes,           0x4814, "GUEST_ES_AR_BYTES")          \
  X(kGuestCsArBytes,           0x4816, "GUEST_CS_AR_BYTES")          \
  X(kGuestSsArBytes,           0x4818, "GUEST_SS_AR_BYTES")          \
  X(kGuestDsArBytes,           0x481A, "GUEST_DS_AR_BYTES")          \
  X(kGuestFsArBytes,           0x481C, "GUEST_FS_AR_BYTES")          \
  X(kGuestGsArBytes,           0x481E, "GUEST_GS_AR_BYTES")          \
  X(kGuestLdtrArBytes,         0x4820, "GUEST_LDTR_AR_BYTES")        \
  X(kGuestTrArBytes,           0x4822, "GUEST_TR_AR_BYTES")          \
  X(kGuestInterruptibility,    0x4824, "GUEST_INTERRUPTIBILITY_INFO")\
  X(kGuestActivityState,       0x4826, "GUEST_ACTIVITY_STATE")       \
  X(kGuestSmbase,              0x4828, "GUEST_SMBASE")               \
  X(kGuestSysenterCs,          0x482A, "GUEST_SYSENTER_CS")          \
  X(kPreemptionTimerValue,     0x482E, "VMX_PREEMPTION_TIMER_VALUE") \
  /* --- 32-bit host-state field --- */                              \
  X(kHostSysenterCs,           0x4C00, "HOST_SYSENTER_CS")           \
  /* --- natural-width control fields --- */                         \
  X(kCr0GuestHostMask,         0x6000, "CR0_GUEST_HOST_MASK")        \
  X(kCr4GuestHostMask,         0x6002, "CR4_GUEST_HOST_MASK")        \
  X(kCr0ReadShadow,            0x6004, "CR0_READ_SHADOW")            \
  X(kCr4ReadShadow,            0x6006, "CR4_READ_SHADOW")            \
  X(kCr3TargetValue0,          0x6008, "CR3_TARGET_VALUE0")          \
  X(kCr3TargetValue1,          0x600A, "CR3_TARGET_VALUE1")          \
  X(kCr3TargetValue2,          0x600C, "CR3_TARGET_VALUE2")          \
  X(kCr3TargetValue3,          0x600E, "CR3_TARGET_VALUE3")          \
  /* --- natural-width read-only data fields --- */                  \
  X(kExitQualification,        0x6400, "EXIT_QUALIFICATION")         \
  X(kIoRcx,                    0x6402, "IO_RCX")                     \
  X(kIoRsi,                    0x6404, "IO_RSI")                     \
  X(kIoRdi,                    0x6406, "IO_RDI")                     \
  X(kIoRip,                    0x6408, "IO_RIP")                     \
  X(kGuestLinearAddress,       0x640A, "GUEST_LINEAR_ADDRESS")       \
  /* --- natural-width guest-state fields --- */                     \
  X(kGuestCr0,                 0x6800, "GUEST_CR0")                  \
  X(kGuestCr3,                 0x6802, "GUEST_CR3")                  \
  X(kGuestCr4,                 0x6804, "GUEST_CR4")                  \
  X(kGuestEsBase,              0x6806, "GUEST_ES_BASE")              \
  X(kGuestCsBase,              0x6808, "GUEST_CS_BASE")              \
  X(kGuestSsBase,              0x680A, "GUEST_SS_BASE")              \
  X(kGuestDsBase,              0x680C, "GUEST_DS_BASE")              \
  X(kGuestFsBase,              0x680E, "GUEST_FS_BASE")              \
  X(kGuestGsBase,              0x6810, "GUEST_GS_BASE")              \
  X(kGuestLdtrBase,            0x6812, "GUEST_LDTR_BASE")            \
  X(kGuestTrBase,              0x6814, "GUEST_TR_BASE")              \
  X(kGuestGdtrBase,            0x6816, "GUEST_GDTR_BASE")            \
  X(kGuestIdtrBase,            0x6818, "GUEST_IDTR_BASE")            \
  X(kGuestDr7,                 0x681A, "GUEST_DR7")                  \
  X(kGuestRsp,                 0x681C, "GUEST_RSP")                  \
  X(kGuestRip,                 0x681E, "GUEST_RIP")                  \
  X(kGuestRflags,              0x6820, "GUEST_RFLAGS")               \
  X(kGuestPendingDbgExceptions,0x6822, "GUEST_PENDING_DBG_EXCEPTIONS")\
  X(kGuestSysenterEsp,         0x6824, "GUEST_SYSENTER_ESP")         \
  X(kGuestSysenterEip,         0x6826, "GUEST_SYSENTER_EIP")         \
  /* --- natural-width host-state fields --- */                      \
  X(kHostCr0,                  0x6C00, "HOST_CR0")                   \
  X(kHostCr3,                  0x6C02, "HOST_CR3")                   \
  X(kHostCr4,                  0x6C04, "HOST_CR4")                   \
  X(kHostFsBase,               0x6C06, "HOST_FS_BASE")               \
  X(kHostGsBase,               0x6C08, "HOST_GS_BASE")               \
  X(kHostTrBase,               0x6C0A, "HOST_TR_BASE")               \
  X(kHostGdtrBase,             0x6C0C, "HOST_GDTR_BASE")             \
  X(kHostIdtrBase,             0x6C0E, "HOST_IDTR_BASE")             \
  X(kHostSysenterEsp,          0x6C10, "HOST_SYSENTER_ESP")          \
  X(kHostSysenterEip,          0x6C12, "HOST_SYSENTER_EIP")          \
  X(kHostRsp,                  0x6C14, "HOST_RSP")                   \
  X(kHostRip,                  0x6C16, "HOST_RIP")
// clang-format on

/// Architectural VMCS field, identified by its SDM encoding.
enum class VmcsField : std::uint16_t {
#define IRIS_VMCS_ENUM(name, enc, str) name = enc,
  IRIS_VMCS_FIELD_LIST(IRIS_VMCS_ENUM)
#undef IRIS_VMCS_ENUM
};

/// Number of modeled fields (the paper's compact encoding spans 147
/// values; this table models the full Appendix B set we exercise).
#define IRIS_VMCS_COUNT(name, enc, str) +1
inline constexpr int kNumVmcsFields = 0 IRIS_VMCS_FIELD_LIST(IRIS_VMCS_COUNT);
#undef IRIS_VMCS_COUNT

enum class FieldWidth : std::uint8_t { k16 = 0, k64 = 1, k32 = 2, kNatural = 3 };
enum class FieldType : std::uint8_t {
  kControl = 0,
  kReadOnlyData = 1,  // "VM-exit information" in SDM terms
  kGuestState = 2,
  kHostState = 3,
};

/// Width per SDM Table 24-17 (bits 14:13 of the encoding).
[[nodiscard]] constexpr FieldWidth width_of(VmcsField f) noexcept {
  return static_cast<FieldWidth>((static_cast<std::uint16_t>(f) >> 13) & 0x3);
}

/// Type per SDM Table 24-17 (bits 11:10 of the encoding).
[[nodiscard]] constexpr FieldType type_of(VmcsField f) noexcept {
  return static_cast<FieldType>((static_cast<std::uint16_t>(f) >> 10) & 0x3);
}

/// Read-only fields reject VMWRITE with VMfailValid error 13 (SDM 30.4).
[[nodiscard]] constexpr bool is_read_only(VmcsField f) noexcept {
  return type_of(f) == FieldType::kReadOnlyData;
}

/// Bit mask of architecturally meaningful value bits for the field width
/// (natural width is 64-bit on the modeled x86-64 host).
[[nodiscard]] constexpr std::uint64_t width_mask(VmcsField f) noexcept {
  switch (width_of(f)) {
    case FieldWidth::k16:
      return 0xFFFFULL;
    case FieldWidth::k32:
      return 0xFFFFFFFFULL;
    case FieldWidth::k64:
    case FieldWidth::kNatural:
      return ~0ULL;
  }
  return ~0ULL;
}

/// All modeled fields in canonical (table) order.
[[nodiscard]] std::span<const VmcsField> all_fields() noexcept;

/// SDM-style field name ("GUEST_CR0", ...).
[[nodiscard]] std::string_view to_string(VmcsField f) noexcept;

namespace detail {

/// All modeled fields in canonical (encoding-sorted) table order.
inline constexpr std::array<VmcsField, kNumVmcsFields> kAllVmcsFields = {
#define IRIS_VMCS_TABLE(name, enc, str) VmcsField::name,
    IRIS_VMCS_FIELD_LIST(IRIS_VMCS_TABLE)
#undef IRIS_VMCS_TABLE
};

/// Direct encoding -> compact-index table (0xFF = unmodeled). The
/// encoding space is small (< 0x7000), so a flat byte table beats a
/// binary search on the per-vmread/vmwrite hot path.
inline constexpr std::size_t kEncodingLutSize = [] {
  std::size_t max = 0;
  for (const VmcsField f : kAllVmcsFields) {
    const auto enc = static_cast<std::size_t>(static_cast<std::uint16_t>(f));
    if (enc > max) max = enc;
  }
  return max + 1;
}();

inline constexpr auto kCompactLut = [] {
  std::array<std::uint8_t, kEncodingLutSize> lut{};
  for (auto& b : lut) b = 0xFF;
  for (std::size_t i = 0; i < kAllVmcsFields.size(); ++i) {
    lut[static_cast<std::uint16_t>(kAllVmcsFields[i])] =
        static_cast<std::uint8_t>(i);
  }
  return lut;
}();

}  // namespace detail

/// O(1) encoding -> compact field index, -1 when the encoding is not
/// modeled. This is the hot path under every vmread/vmwrite, so it
/// lives in the header for inlining; constexpr, so a constant encoding
/// folds to a constant index.
[[nodiscard]] constexpr int compact_from_encoding(std::uint16_t encoding) noexcept {
  if (encoding >= detail::kEncodingLutSize) return -1;
  const std::uint8_t idx = detail::kCompactLut[encoding];
  return idx == 0xFF ? -1 : idx;
}

/// True if `encoding` is one of the modeled fields.
[[nodiscard]] inline bool is_valid_field_encoding(std::uint16_t encoding) noexcept {
  return compact_from_encoding(encoding) >= 0;
}

/// Dense 1-byte index used in serialized seed records (paper §V-A).
/// Canonical-table position; stable across builds.
[[nodiscard]] std::optional<std::uint8_t> compact_index(VmcsField f) noexcept;

/// Inverse of compact_index(). Inline: on the seed-injection hot path.
[[nodiscard]] inline std::optional<VmcsField> field_from_compact(
    std::uint8_t idx) noexcept {
  if (idx >= detail::kAllVmcsFields.size()) return std::nullopt;
  return detail::kAllVmcsFields[idx];
}

/// Parse an SDM-style name back to a field (CLI / corpus tooling).
[[nodiscard]] std::optional<VmcsField> field_from_string(std::string_view name) noexcept;

}  // namespace iris::vtx
