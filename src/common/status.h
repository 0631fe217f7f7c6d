// Status and Result<T>: the error-handling vocabulary for the GODIVA
// codebase. No exceptions cross API boundaries; fallible operations return
// Status (no payload) or Result<T> (payload or error).
#ifndef GODIVA_COMMON_STATUS_H_
#define GODIVA_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace godiva {

// Canonical error space, loosely following absl::StatusCode.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,
  kDeadlineExceeded,
  kAborted,        // e.g. deadlock detected, shutdown in progress
  kUnavailable,    // transient storage failure; retrying may succeed
  kDataLoss,       // corrupt file contents
  kUnimplemented,
  kIoError,        // underlying storage failure
  kInternal,
};

// Human-readable name for a code ("OK", "NOT_FOUND", ...).
std::string_view StatusCodeName(StatusCode code);

// A cheap value type carrying success or (code, message). [[nodiscard]]
// at the class level: every call site that ignores a returned Status is a
// compile error (-Werror) — intentional discards are spelled
// `(void)expr;` and must carry a `// lint: discard_ok(reason)` waiver,
// which godiva_lint check 4 enforces (the compiler cannot see through the
// cast; the linter can).
class [[nodiscard]] Status {
 public:
  // Success.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != StatusCode::kOk);
  }

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "NOT_FOUND: no such unit".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Convenience constructors, mirroring absl's.
Status InvalidArgumentError(std::string_view message);
Status NotFoundError(std::string_view message);
Status AlreadyExistsError(std::string_view message);
Status FailedPreconditionError(std::string_view message);
Status OutOfRangeError(std::string_view message);
Status ResourceExhaustedError(std::string_view message);
Status DeadlineExceededError(std::string_view message);
Status AbortedError(std::string_view message);
Status UnavailableError(std::string_view message);
Status DataLossError(std::string_view message);
Status UnimplementedError(std::string_view message);
Status IoError(std::string_view message);
Status InternalError(std::string_view message);

// Result<T>: either a value or an error Status. Accessing the value of an
// errored Result is a programming error (asserts in debug builds).
// [[nodiscard]] like Status: a discarded Result silently drops both the
// payload and the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires an error status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  // `*std::move(result)` moves the value out rather than copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the value, or `fallback` on error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Evaluates `expr` (a Status expression); returns it from the enclosing
// function if not OK.
#define GODIVA_RETURN_IF_ERROR(expr)                   \
  do {                                                 \
    ::godiva::Status godiva_status_tmp_ = (expr);      \
    if (!godiva_status_tmp_.ok()) return godiva_status_tmp_; \
  } while (false)

// Evaluates `rexpr` (a Result<T> expression); on error returns its status,
// otherwise assigns the value into `lhs` (which may be a declaration).
#define GODIVA_ASSIGN_OR_RETURN(lhs, rexpr)                      \
  GODIVA_ASSIGN_OR_RETURN_IMPL_(                                 \
      GODIVA_STATUS_CONCAT_(godiva_result_, __LINE__), lhs, rexpr)

#define GODIVA_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                  \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).value()

#define GODIVA_STATUS_CONCAT_(a, b) GODIVA_STATUS_CONCAT_IMPL_(a, b)
#define GODIVA_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace godiva

#endif  // GODIVA_COMMON_STATUS_H_
