// One report shape and one flag parser for the plain (non-google-benchmark)
// benches. Every report is a single JSON line
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
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
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
    int argc, const char* const* argv, std::initializer_list<Flag> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const Flag* f = std::find_if(flags.begin(), flags.end(),
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

/// try_parse_flags, or the error and a usage line on stderr and exit 2.
inline void parse_flags(int argc, char** argv,
                        std::initializer_list<Flag> flags) {
  const std::optional<std::string> err = try_parse_flags(argc, argv, flags);
  if (!err) return;
  static constexpr const char* kMetavar[] = {"N", "N", "STR", "N,N,..."};
  std::string usage = "usage: " + std::string(argc ? argv[0] : "bench");
  for (const Flag& f : flags)
    usage += " [" + std::string(f.name) + " " + kMetavar[f.target.index()] +
             "]";
  std::fprintf(stderr, "%s\n%s\n", err->c_str(), usage.c_str());
  std::exit(2);
}

}  // namespace hatbench
