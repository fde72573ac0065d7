#pragma once
// Structured error propagation for the public Engine API (ISSUE 3).
//
// The analysis/simulation core keeps its two-tier discipline (GPURF_CHECK
// throws gpurf::Error for recoverable input problems, GPURF_ASSERT aborts on
// internal corruption).  The Engine boundary converts the recoverable tier
// into values: every public entry point returns Status or StatusOr<T>, so a
// server embedding many Engines can reject one bad request — unknown
// workload, malformed kernel text, stale cache entry — without unwinding or
// terminating the process.

#include <new>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace gpurf {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< malformed input (bad kernel text, bad options)
  kNotFound,            ///< unknown workload / missing cache entry
  kFailedPrecondition,  ///< IR verification failed
  kDataLoss,            ///< corrupt or stale on-disk cache entry
  kInternal,            ///< unexpected failure inside the core
  kCancelled,           ///< job cancelled by the caller
  kDeadlineExceeded,    ///< per-request deadline elapsed (queued or running)
  kUnavailable,         ///< transient transport failure (daemon not up,
                        ///< connection lost, socket timeout) — retryable
};

inline const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status DataLoss(std::string m) {
    return Status(StatusCode::kDataLoss, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    return ok() ? "OK"
                : std::string(status_code_name(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Value-or-Status.  value() asserts ok() via GPURF_CHECK (throws
/// gpurf::Error, never aborts), so legacy shims can surface engine errors
/// as the exceptions callers already handle.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status)  // NOLINT: implicit by design, like absl
      : status_(std::move(status)) {
    GPURF_CHECK(!status_.ok(), "StatusOr constructed from OK without value");
  }
  StatusOr(T value)  // NOLINT
      : has_value_(true) {
    new (&storage_) T(std::move(value));
  }

  StatusOr(const StatusOr& o) : status_(o.status_), has_value_(o.has_value_) {
    if (has_value_) new (&storage_) T(*o.ptr());
  }
  StatusOr(StatusOr&& o) noexcept
      : status_(std::move(o.status_)), has_value_(o.has_value_) {
    if (has_value_) new (&storage_) T(std::move(*o.ptr()));
  }
  StatusOr& operator=(const StatusOr& o) {
    if (this != &o) {
      destroy();
      status_ = o.status_;
      has_value_ = o.has_value_;
      if (has_value_) new (&storage_) T(*o.ptr());
    }
    return *this;
  }
  StatusOr& operator=(StatusOr&& o) noexcept {
    if (this != &o) {
      destroy();
      status_ = std::move(o.status_);
      has_value_ = o.has_value_;
      if (has_value_) new (&storage_) T(std::move(*o.ptr()));
    }
    return *this;
  }
  ~StatusOr() { destroy(); }

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  const T& value() const& {
    GPURF_CHECK(has_value_, "StatusOr::value on error: " << status_.to_string());
    return *ptr();
  }
  T& value() & {
    GPURF_CHECK(has_value_, "StatusOr::value on error: " << status_.to_string());
    return *ptr();
  }
  T&& value() && {
    GPURF_CHECK(has_value_, "StatusOr::value on error: " << status_.to_string());
    return std::move(*ptr());
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  T* ptr() { return std::launder(reinterpret_cast<T*>(&storage_)); }
  const T* ptr() const {
    return std::launder(reinterpret_cast<const T*>(&storage_));
  }
  void destroy() {
    if (has_value_) {
      ptr()->~T();
      has_value_ = false;
    }
  }

  Status status_;
  bool has_value_ = false;
  alignas(T) unsigned char storage_[sizeof(T)];
};

}  // namespace gpurf
