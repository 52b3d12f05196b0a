// One report shape, one flag parser and one row runner for every bench.
// Every report is a single JSON line
//
//   {"bench":…,"seed":…,"config":{…},"virtual":{…},"host":{…}}
//
// `config` and `virtual` are deterministic for a given seed, so CI
// regenerates them and compares them with the committed BENCH_<bench>.json
// (scripts/bench_gate.py). `host` holds only wall-clock measurements: it is
// the one block two same-seed runs may disagree on.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hatbench {

/// A float written with a fixed number of decimals ("%.*f"), so a value
/// renders to the same bytes on every run.
struct Fixed {
  double v;
  int decimals;
};

/// `s` as a JSON string literal.
inline std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
      continue;
    }
    char buf[8];
    std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
    out += buf;
  }
  return out + "\"";
}

/// "0x" and 16 hex digits: how the benches print a 64-bit digest.
inline std::string hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A JSON object or array whose members keep insertion order. Values render
/// as they are added; a nested Json is copied in as text.
class Json {
 public:
  static Json object() { return Json("{", "}"); }
  static Json array() { return Json("[", "]"); }

  /// Adds `"key":v` to an object.
  template <class T>
  Json& put(std::string_view key, const T& v) {
    return put_raw(key, render(v));
  }
  /// Adds `"key":json`, where `json` is already JSON text.
  Json& put_raw(std::string_view key, std::string_view json) {
    return push_raw(quote(key) + ":" + std::string(json));
  }
  /// Appends `v` to an array.
  template <class T>
  Json& push(const T& v) {
    return push_raw(render(v));
  }

  std::string str() const { return open_ + body_ + close_; }

 private:
  Json(const char* open, const char* close) : open_(open), close_(close) {}

  Json& push_raw(const std::string& member) {
    body_ += (body_.empty() ? "" : ",") + member;
    return *this;
  }
  static std::string render(bool v) { return v ? "true" : "false"; }
  template <std::integral T>
  static std::string render(T v) {
    return std::to_string(v);
  }
  // A bare double would convert to bool; say how many decimals instead.
  static std::string render(double) = delete;
  static std::string render(Fixed f) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", f.decimals, f.v);
    return buf;
  }
  static std::string render(std::nullptr_t) { return "null"; }
  static std::string render(const char* s) { return quote(s); }
  static std::string render(const std::string& s) { return quote(s); }
  static std::string render(const Json& j) { return j.str(); }
  template <std::integral T>
  static std::string render(const std::vector<T>& v) {
    Json a = array();
    for (T x : v) a.push(x);
    return a.str();
  }

  const char* open_;
  const char* close_;
  std::string body_;
};

/// One run's report in the shape every plain bench shares.
struct Report {
  std::string bench;
  uint64_t seed = 0;
  Json config = Json::object();
  Json virt = Json::object();  // the "virtual" block
  Json host = Json::object();

  std::string str() const {
    return Json::object()
               .put("bench", bench)
               .put("seed", seed)
               .put("config", config)
               .put("virtual", virt)
               .put("host", host)
               .str() +
           "\n";
  }
  /// Writes str() to `path`; on failure says so on stderr and returns false.
  bool write(const std::string& path) const {
    std::ofstream f(path);
    f << str();
    f.close();
    if (f) return true;
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
};

/// Parses all of `s` into `out`: an unsigned decimal that fits (no sign, no
/// spaces, nothing after it), or for a list, one or more of them separated
/// by commas. `out` is left alone on failure.
template <std::unsigned_integral T>
bool parse_value(std::string_view s, T& out) {
  T v{};
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  out = v;
  return true;
}
inline bool parse_value(std::string_view s, std::vector<uint32_t>& out) {
  std::vector<uint32_t> list;
  for (size_t at = 0;;) {
    const size_t comma = s.find(',', at);
    if (!parse_value(s.substr(at, comma - at), list.emplace_back()))
      return false;
    if (comma == std::string_view::npos) break;
    at = comma + 1;
  }
  out = std::move(list);
  return true;
}
inline bool parse_value(std::string_view s, std::string& out) {
  out = s;
  return true;
}

/// One `--name value` flag of a plain bench and the variable it sets.
struct Flag {
  const char* name;
  std::variant<uint64_t*, uint32_t*, std::string*, std::vector<uint32_t>*>
      target;
};

/// Applies argv[1..] to `flags`; returns what was wrong, or nullopt.
inline std::optional<std::string> try_parse_flags(
    int argc, const char* const* argv, const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const auto f = std::find_if(flags.begin(), flags.end(),
                                [&](const Flag& x) { return x.name == name; });
    if (f == flags.end()) return "unknown flag: " + name;
    if (i + 1 >= argc) return name + " needs a value";
    const std::string value = argv[++i];
    if (!std::visit([&](auto* t) { return parse_value(value, *t); },
                    f->target))
      return name + ": malformed value '" + value + "'";
  }
  return std::nullopt;
}

/// `err` and the usage line of `argv0` taking `flags` on stderr; exit 2.
[[noreturn]] inline void usage_exit(const std::string& argv0,
                                    const std::vector<Flag>& flags,
                                    const std::string& err) {
  static constexpr const char* kMetavar[] = {"N", "N", "STR", "N,N,..."};
  std::string usage = "usage: " + argv0;
  for (const Flag& f : flags)
    usage += " [" + std::string(f.name) + " " + kMetavar[f.target.index()] +
             "]";
  std::fprintf(stderr, "%s\n%s\n", err.c_str(), usage.c_str());
  std::exit(2);
}

/// try_parse_flags, or the error and a usage line on stderr and exit 2.
inline void parse_flags(int argc, char** argv, const std::vector<Flag>& flags) {
  if (const auto err = try_parse_flags(argc, argv, flags))
    usage_exit(argc ? argv[0] : "bench", flags, *err);
}

/// One row of a figure bench: `run` adds the row's fields to its object
/// under `virtual.rows`, after its name.
struct Row {
  std::string name;
  std::function<void(Json& row)> run;
};

/// The rows whose name contains `filter`, in list order.
inline std::vector<Row> filter_rows(std::vector<Row> rows,
                                    std::string_view filter) {
  std::erase_if(rows, [&](const Row& r) {
    return r.name.find(filter) == std::string::npos;
  });
  return rows;
}

/// The figure benches take no --seed: the seed their scenarios derive
/// payloads from is fixed, and their reports say so.
constexpr uint64_t kFigureSeed = 1;

/// A figure bench: a list of named rows, each one deterministic simulation.
/// run() runs the rows `--filter` selects in order, prints one line per
/// row, and writes one report to `--out`: an object per row under
/// `virtual.rows`, and the row's wall time under `host.rows`.
class Figure {
 public:
  /// Parses `--out FILE` and `--filter SUBSTR` plus the bench's own
  /// `flags`; a bad command line exits 2 with the usage line.
  Figure(std::string bench, int argc, char** argv,
         const std::vector<Flag>& flags = {})
      : report{std::move(bench), kFigureSeed},
        argv0_(argc ? argv[0] : "bench"),
        flags_{{"--out", &out_}, {"--filter", &filter_}} {
    flags_.insert(flags_.end(), flags.begin(), flags.end());
    parse_flags(argc, argv, flags_);
  }
  Figure(const Figure&) = delete;  // flags_ points into this object
  Figure& operator=(const Figure&) = delete;

  Report report;
  std::vector<Row> rows;

  void add(std::string name, std::function<void(Json& row)> run) {
    rows.push_back({std::move(name), std::move(run)});
  }

  /// A flag value the parser accepted but the bench cannot use.
  [[noreturn]] void usage_error(const std::string& err) const {
    usage_exit(argv0_, flags_, err);
  }

  /// Runs the selected rows; returns main's exit status. No row selected
  /// is a usage error.
  int run() {
    const std::vector<Row> picked = filter_rows(std::move(rows), filter_);
    if (picked.empty())
      usage_error("--filter '" + filter_ + "' matches no row");
    Json virt_rows = Json::array();
    Json host_rows = Json::array();
    for (const Row& r : picked) {
      Json row = Json::object().put("name", r.name);
      const auto t0 = std::chrono::steady_clock::now();
      r.run(row);
      const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0);
      std::printf("%s  (%.1f ms)\n", row.str().c_str(), wall.count() / 1e3);
      std::fflush(stdout);
      virt_rows.push(row);
      host_rows.push(Json::object()
                         .put("name", r.name)
                         .put("wall_us", wall.count()));
    }
    report.virt.put("rows", virt_rows);
    report.host.put("rows", host_rows);
    return out_.empty() || report.write(out_) ? 0 : 1;
  }

 private:
  std::string out_;
  std::string filter_;
  std::string argv0_;
  std::vector<Flag> flags_;
};

}  // namespace hatbench
