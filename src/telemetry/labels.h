// Single header home for enum label names (telemetry satellite).
//
// Exporters stamp enum values onto metric samples as label strings
// (`nnn_verify_total{status="replayed"}`), once per sample per
// snapshot. Returning std::string from to_string() — what the seed did
// — allocates on every one of those stamps and scatters the name
// tables across five modules. Every overload here returns a
// std::string_view into a static literal instead, and lives in this
// one place so the label vocabulary of the metrics API is auditable at
// a glance (the §6 argument: counters a regulator reads must have
// stable, documented names).
//
// Only the enums are forward-declared (all have fixed underlying
// types), so this header is includable from the lowest layers —
// util::Logger routes its level counts through the registry without
// util growing a dependency on the modules that define the enums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace nnn {
// Unified error taxonomy (util/error.h defines the enums and counts;
// PR 5). The exporter stamps these as nnn_errors_total{domain,code}.
enum class ErrorDomain : uint8_t;
enum class ErrorCode : uint8_t;
std::string_view to_string(ErrorDomain d);
std::string_view to_string(ErrorCode c);
}  // namespace nnn

namespace nnn::cookies {
enum class VerifyStatus : uint8_t;
/// Number of VerifyStatus values (StatusCounters sizing).
inline constexpr size_t kVerifyStatusCount = 8;
std::string_view to_string(VerifyStatus s);
}  // namespace nnn::cookies

namespace nnn::dataplane {
enum class DispatchPolicy : uint8_t;
std::string_view to_string(DispatchPolicy p);

enum class HwDecision : uint8_t;
inline constexpr size_t kHwDecisionCount = 4;
std::string_view to_string(HwDecision d);
}  // namespace nnn::dataplane

namespace nnn::util {
enum class LogLevel;
inline constexpr size_t kLogLevelCount = 4;
std::string_view to_string(LogLevel level);
}  // namespace nnn::util

namespace nnn::server {
enum class AcquireError : uint8_t;
inline constexpr size_t kAcquireErrorCount = 5;
std::string_view to_string(AcquireError e);
}  // namespace nnn::server

namespace nnn::fault {
enum class FaultKind : uint8_t;
inline constexpr size_t kFaultKindCount = 11;
std::string_view to_string(FaultKind k);
}  // namespace nnn::fault

namespace nnn::netio {
enum class ConnState : uint8_t;
inline constexpr size_t kConnStateCount = 4;
std::string_view to_string(ConnState s);
}  // namespace nnn::netio

namespace nnn::audit {
enum class AuditVerdict : uint8_t;
inline constexpr size_t kAuditVerdictCount = 3;
std::string_view to_string(AuditVerdict v);
}  // namespace nnn::audit
