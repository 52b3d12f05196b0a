// The core shared by the runtime's contract checkers (verbs::VerbsCheck,
// sim::RaceCheck): the off/record/abort mode and its environment-variable
// parse, the Tolerate scope, the report list, and the one raise() path. A
// checker adds only its rules and its counter bump.
//
// Off (the default) keeps runs byte-identical to an unchecked build; record
// collects reports and continues; abort also throws each report as the
// checker's violation exception — or prints it to stderr where a throw
// would terminate (another exception is unwinding) or is unwanted
// (teardown audits).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <type_traits>
#include <utility>
#include <vector>

namespace hatrpc::sim {

enum class CheckMode : uint8_t { kOff, kRecord, kAbort };

/// Parses the environment variable `var`: "abort" => kAbort,
/// "record"/"on"/"1" => kRecord, anything else (or unset) => kOff.
inline CheckMode check_mode_from_env(const char* var) {
  const char* v = std::getenv(var);
  if (!v) return CheckMode::kOff;
  if (std::strcmp(v, "abort") == 0) return CheckMode::kAbort;
  if (std::strcmp(v, "record") == 0 || std::strcmp(v, "on") == 0 ||
      std::strcmp(v, "1") == 0)
    return CheckMode::kRecord;
  return CheckMode::kOff;
}

/// `Report` has a str() and a class member named by `Kind` (a pointer to
/// member); `Violation` is constructible from a `const Report&`.
template <class Report, class Violation, auto Kind>
class Checker {
 public:
  using Mode = CheckMode;
  using KindType = std::remove_cvref_t<decltype(std::declval<Report>().*Kind)>;

  explicit Checker(const char* env_var)
      : mode_(check_mode_from_env(env_var)) {}

  Mode mode() const { return mode_; }
  void set_mode(Mode m) { mode_ = m; }
  bool on() const { return mode_ != Mode::kOff; }

  /// RAII scope for deliberate-violation tests: reports are still
  /// recorded, but abort mode does not throw inside the scope.
  class Tolerate {
   public:
    explicit Tolerate(Checker& c) : c_(c) { ++c_.tolerate_; }
    ~Tolerate() { --c_.tolerate_; }
    Tolerate(const Tolerate&) = delete;
    Tolerate& operator=(const Tolerate&) = delete;

   private:
    Checker& c_;
  };

  const std::vector<Report>& reports() const { return reports_; }
  size_t total() const { return reports_.size(); }
  uint64_t count(KindType k) const {
    uint64_t n = 0;
    for (const Report& r : reports_) n += r.*Kind == k ? 1 : 0;
    return n;
  }
  void clear() { reports_.clear(); }

 protected:
  /// Records `r`. In abort mode outside a Tolerate scope, throws it — or
  /// prints it when `may_throw` is false or an exception is unwinding.
  void raise(Report r, bool may_throw = true) {
    reports_.push_back(std::move(r));
    if (mode_ != Mode::kAbort || tolerate_ > 0) return;
    const Report& last = reports_.back();
    if (may_throw && std::uncaught_exceptions() == 0) throw Violation(last);
    std::fprintf(stderr, "%s\n", last.str().c_str());
  }

 private:
  Mode mode_;
  int tolerate_ = 0;
  std::vector<Report> reports_;
};

}  // namespace hatrpc::sim
