// Counts a Tracer's events by name, read back from the Chrome JSON the
// tracer exports (Tracer::write_json). The fabric traces one
// `wqe/<opcode>` span per WQE, every bound channel one `call/<kind>` span
// per call that returns, and the bypass protocols one `read-retry` instant
// per READ that found the reply not yet published, so a run's per-opcode
// verbs footprint is read here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "sim/time.h"

namespace hatrpc::obs {

class TraceCounts {
 public:
  TraceCounts() = default;
  /// Every event of `t`; with a window, only those that start in
  /// [from, to].
  explicit TraceCounts(const Tracer& t, sim::Time from = sim::Time::min(),
                       sim::Time to = sim::Time::max()) {
    std::ostringstream os;
    t.write_json(os);
    const std::string j = os.str();
    constexpr std::string_view kEvent = "{\"ph\":\"";
    constexpr std::string_view kName = "\",\"name\":\"";
    constexpr std::string_view kTs = "\"ts\":";
    for (size_t at = j.find(kEvent); at != std::string::npos;
         at = j.find(kEvent, at + 1)) {
      if (j[at + kEvent.size()] == 'M') continue;  // process-name metadata
      const size_t name = at + kEvent.size() + 1 + kName.size();
      const size_t name_end = j.find('"', name);
      // ts is fixed-point microseconds with three decimals: "12.345".
      const size_t ts = j.find(kTs, name_end) + kTs.size();
      const size_t dot = j.find('.', ts);
      const sim::Time start(std::stoll(j.substr(ts, dot - ts)) * 1000 +
                            std::stoll(j.substr(dot + 1, 3)));
      if (start >= from && start <= to)
        ++by_name_[j.substr(name, name_end - name)];
    }
  }

  /// Events named exactly `name`.
  uint64_t operator[](std::string_view name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? 0 : it->second;
  }

  /// Events whose name starts with `prefix`.
  uint64_t with_prefix(std::string_view prefix) const {
    uint64_t n = 0;
    for (auto it = by_name_.lower_bound(prefix);
         it != by_name_.end() && it->first.starts_with(prefix); ++it)
      n += it->second;
    return n;
  }

 private:
  std::map<std::string, uint64_t, std::less<>> by_name_;
};

}  // namespace hatrpc::obs
