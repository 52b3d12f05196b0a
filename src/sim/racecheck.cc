#include "sim/racecheck.h"

#include <algorithm>

#include "sim/simulator.h"

namespace hatrpc::sim {

std::string RaceReport::str() const {
  auto prov = [](const RaceAccess& a) {
    std::string s = a.site;
    s += " (";
    s += a.write ? "write" : "read";
    s += ", chain ";
    s += std::to_string(a.chain);
    s += ", clk ";
    s += std::to_string(a.clk);
    s += ", t=";
    s += std::to_string(a.at.count());
    s += "ns)";
    return s;
  };
  std::string out = "racecheck[";
  out += to_string(kind);
  out += "] obj=";
  out += object;
  out += ": ";
  if (prev.valid()) {
    out += prov(prev);
    out += " vs ";
  }
  out += prov(cur);
  out += ": ";
  out += detail;
  return out;
}

RaceCheck::RaceCheck(Simulator& sim) : Checker("RACECHECK"), sim_(sim) {
  // Chain 0 is the root segment (main, before the first dispatch).
  cur_vc_.assign(1, 1);
  chain_tail_.assign(1, 0);
  chain_last_emit_.assign(1, 0);
  sim_.rc_ = on() ? this : nullptr;
}

void RaceCheck::set_mode(Mode m) {
  Checker::set_mode(m);
  sim_.rc_ = on() ? this : nullptr;
}

RaceAccess RaceCheck::here(bool write, const char* site) const {
  return RaceAccess{sim_.now(), cur_chain_, cur_vc_[cur_chain_], write, site};
}

void RaceCheck::join(VC& into, const VC& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (size_t i = 0; i < from.size(); ++i)
    into[i] = std::max(into[i], from[i]);
}

uint32_t RaceCheck::alloc_snap() {
  if (!snap_free_.empty()) {
    uint32_t s = snap_free_.back();
    snap_free_.pop_back();
    return s;
  }
  snaps_.emplace_back();
  return static_cast<uint32_t>(snaps_.size() - 1);
}

void RaceCheck::free_snap(uint32_t slot) {
  snaps_[slot].clear();  // keeps capacity for reuse
  snap_free_.push_back(slot);
}

uint32_t RaceCheck::capture() {
  uint32_t s = alloc_snap();
  snaps_[s] = cur_vc_;
  tick();
  return s;
}

void RaceCheck::drop(uint32_t slot) { free_snap(slot); }

void RaceCheck::merge_into(uint32_t from, uint32_t into) {
  join(snaps_[into], snaps_[from]);
  free_snap(from);
}

void RaceCheck::begin_segment(uint32_t slot) {
  // End the current segment; its chain becomes reusable.
  chain_tail_[cur_chain_] = clk();
  free_chains_.push_back(cur_chain_);

  VC v = std::move(snaps_[slot]);
  free_snap(slot);

  // A free chain may carry the new segment iff the snapshot dominates
  // everything the chain ever EMITTED (accesses / releases). Snapshot-only
  // ticks past the last emission don't block reuse — nothing observable
  // carries those clock values — which is what lets a sleeping coroutine
  // resume onto its own chain. Reuse can only under-report (same-chain
  // epochs are ordered by construction), and the emission condition rules
  // even that out.
  uint32_t c = kNoClock;
  size_t scan = std::min(free_chains_.size(), kReuseScan);
  for (size_t i = 0; i < scan; ++i) {
    size_t at = free_chains_.size() - 1 - i;
    uint32_t fc = free_chains_[at];
    uint64_t have = fc < v.size() ? v[fc] : 0;
    if (have >= chain_last_emit_[fc]) {
      c = fc;
      free_chains_.erase(free_chains_.begin() + static_cast<long>(at));
      break;
    }
  }
  if (c == kNoClock) {
    c = static_cast<uint32_t>(chain_tail_.size());
    chain_tail_.push_back(0);
    chain_last_emit_.push_back(0);
  }
  cur_vc_ = std::move(v);
  if (cur_vc_.size() <= c) cur_vc_.resize(c + 1, 0);
  cur_vc_[c] = std::max(cur_vc_[c], chain_tail_[c]) + 1;
  cur_chain_ = c;
}

void RaceCheck::acquire_token(uint32_t slot) {
  join(cur_vc_, snaps_[slot]);
  free_snap(slot);
}

void RaceCheck::run_barrier() {
  // drain() returned control to the caller: in every legal schedule the
  // caller resumes only after all dispatched segments ran to suspension,
  // so joining every chain's final clock is sound.
  for (size_t c = 0; c < chain_tail_.size(); ++c) {
    uint64_t last = std::max(chain_tail_[c], chain_last_emit_[c]);
    if (c < cur_vc_.size()) {
      cur_vc_[c] = std::max(cur_vc_[c], last);
    } else {
      cur_vc_.resize(c + 1, 0);
      cur_vc_[c] = last;
    }
  }
  tick();
}

void RaceCheck::sync_release(const void* obj, uint64_t sub) {
  VC& v = sync_[LocKey{obj, sub}];
  join(v, cur_vc_);
  emit();
  tick();
}

void RaceCheck::sync_acquire(const void* obj, uint64_t sub) {
  auto it = sync_.find(LocKey{obj, sub});
  if (it != sync_.end()) join(cur_vc_, it->second);
}

std::string RaceCheck::object_name(const Loc& l, const LocKey& k) const {
  std::string s = l.name;
  s += '[';
  s += std::to_string(k.sub);
  s += ']';
  return s;
}

void RaceCheck::record(std::vector<RaceAccess>& list, const RaceAccess& a) {
  // Replace entries this access dominates (transitivity makes them
  // redundant for future conflict checks); keep one entry per live chain.
  size_t keep = 0;
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].chain == a.chain || hb(list[i])) continue;
    list[keep++] = list[i];
  }
  list.resize(keep);
  list.push_back(a);
}

void RaceCheck::access(const void* obj, uint64_t sub, Access a,
                       const char* name, const char* site) {
  LocKey key{obj, sub};
  Loc& l = locs_[key];
  l.name = name;
  RaceAccess cur = here(a != Access::kRead, site);

  if (l.dead) {
    report(RaceKind::kLifetime, object_name(l, key), l.retired, cur,
           "access to a retired location");
    emit();
    return;
  }

  switch (a) {
    case Access::kRead:
      if (l.write.valid() && !hb(l.write))
        report(RaceKind::kRace, object_name(l, key), l.write, cur,
               "unsynchronized write/read");
      for (const auto& u : l.updates)
        if (!hb(u))
          report(RaceKind::kRace, object_name(l, key), u, cur,
                 "unsynchronized update/read");
      record(l.reads, cur);
      break;
    case Access::kWrite:
      if (l.write.valid() && !hb(l.write))
        report(RaceKind::kRace, object_name(l, key), l.write, cur,
               "unsynchronized write/write");
      for (const auto& r : l.reads)
        if (!hb(r))
          report(RaceKind::kRace, object_name(l, key), r, cur,
                 "unsynchronized read/write");
      for (const auto& u : l.updates)
        if (!hb(u))
          report(RaceKind::kRace, object_name(l, key), u, cur,
                 "unsynchronized update/write");
      l.reads.clear();
      l.updates.clear();
      l.write = cur;
      break;
    case Access::kUpdate:
      // Relaxed: updates commute with each other by design; only strict
      // accesses (and lifetime) conflict with them.
      if (l.write.valid() && !hb(l.write))
        report(RaceKind::kRace, object_name(l, key), l.write, cur,
               "unsynchronized write/update");
      for (const auto& r : l.reads)
        if (!hb(r))
          report(RaceKind::kRace, object_name(l, key), r, cur,
                 "unsynchronized read/update");
      record(l.updates, cur);
      break;
  }
  emit();
}

void RaceCheck::retire(const void* obj, uint64_t sub, const char* name,
                       const char* site) {
  LocKey key{obj, sub};
  Loc& l = locs_[key];
  l.name = name;
  RaceAccess cur = here(true, site);
  if (l.dead) {
    report(RaceKind::kLifetime, object_name(l, key), l.retired, cur,
           "retire of an already-retired location");
  } else {
    // A retire racing a recorded access is a use-after-free in waiting.
    auto check = [&](const RaceAccess& a) {
      if (!hb(a))
        report(RaceKind::kLifetime, object_name(l, key), a, cur,
               "retired while an unordered access is live");
    };
    if (l.write.valid()) check(l.write);
    for (const auto& r : l.reads) check(r);
    for (const auto& u : l.updates) check(u);
  }
  l.dead = true;
  l.retired = cur;
  emit();
}

void RaceCheck::revive(const void* obj, uint64_t sub) {
  locs_.erase(LocKey{obj, sub});
}

void RaceCheck::forget(const void* obj, uint64_t sub) {
  locs_.erase(LocKey{obj, sub});
  sync_.erase(LocKey{obj, sub});
}

void RaceCheck::report_lifetime(const void* obj, uint64_t sub,
                                const char* name, const char* site,
                                std::string detail) {
  LocKey key{obj, sub};
  Loc& l = locs_[key];
  l.name = name;
  RaceAccess cur = here(true, site);
  RaceAccess prev = l.dead ? l.retired : RaceAccess{};
  report(RaceKind::kLifetime, object_name(l, key), prev, cur,
         std::move(detail));
  emit();
}

void RaceCheck::report(RaceKind kind, std::string object,
                       const RaceAccess& prev, const RaceAccess& cur,
                       std::string detail) {
  if (mirror_) ++*mirror_;
  raise(RaceReport{kind, std::move(object), prev, cur, std::move(detail)});
}

}  // namespace hatrpc::sim
