// bench/report.h: the flag parser every bench shares rejects bad command
// lines instead of aborting or wrapping, the JSON writer's output is exact,
// and a figure bench runs the rows its filter selects, in order.
#include "report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

namespace {

using hatbench::Fixed;
using hatbench::Json;

struct Opts {
  uint64_t seed = 1;
  uint32_t records = 4000;
  std::string out = "default.json";
  std::vector<uint32_t> clients = {1, 4};

  std::optional<std::string> parse(std::vector<const char*> args) {
    args.insert(args.begin(), "bench");
    return hatbench::try_parse_flags(
        static_cast<int>(args.size()), args.data(),
        {{"--seed", &seed}, {"--records", &records}, {"--out", &out},
         {"--clients", &clients}});
  }
};

TEST(BenchFlags, AcceptsEveryKindOfValue) {
  Opts o;
  EXPECT_EQ(o.parse({"--seed", "18446744073709551615", "--records", "7",
                     "--out", "x.json", "--clients", "1,8,64"}),
            std::nullopt);
  EXPECT_EQ(o.seed, UINT64_MAX);
  EXPECT_EQ(o.records, 7u);
  EXPECT_EQ(o.out, "x.json");
  EXPECT_EQ(o.clients, (std::vector<uint32_t>{1, 8, 64}));
}

TEST(BenchFlags, RejectsAnUnknownFlagOrAMissingValue) {
  Opts o;
  EXPECT_EQ(o.parse({"--shards", "8"}), "unknown flag: --shards");
  EXPECT_EQ(o.parse({"seed", "1"}), "unknown flag: seed");
  EXPECT_EQ(o.parse({"--seed", "3", "--out"}), "--out needs a value");
}

TEST(BenchFlags, RejectsMalformedNumbersAndKeepsTheDefault) {
  // Non-numeric, negative, signed, out of range, and malformed lists.
  for (const char* bad : {"abc", "", "12abc", " 12", "0x10", "1.5", "-1",
                          "+1", "4294967296"}) {
    Opts o;
    EXPECT_EQ(o.parse({"--records", bad}),
              "--records: malformed value '" + std::string(bad) + "'");
    EXPECT_EQ(o.records, 4000u);
  }
  for (const char* bad : {"", "1,", ",1", "1,,2", "1;2", "1,-8"}) {
    Opts o;
    EXPECT_TRUE(o.parse({"--clients", bad})) << "accepted '" << bad << "'";
    EXPECT_EQ(o.clients, (std::vector<uint32_t>{1, 4}));
  }
  Opts o;
  EXPECT_TRUE(o.parse({"--seed", "-1"}));
  EXPECT_TRUE(o.parse({"--seed", "18446744073709551616"}));
  EXPECT_EQ(o.seed, 1u);
}

TEST(BenchFlagsDeathTest, ParseExitsWithUsageStatus2) {
  uint64_t seed = 1;
  std::string out;
  const char* argv[] = {"bench_x", "--seed", "abc"};
  EXPECT_EXIT(hatbench::parse_flags(3, const_cast<char**>(argv),
                                    {{"--seed", &seed}, {"--out", &out}}),
              testing::ExitedWithCode(2),
              "--seed: malformed value 'abc'\nusage: bench_x \\[--seed N\\] "
              "\\[--out STR\\]");
}

TEST(BenchJson, EscapesQuotesBackslashesAndControlCharacters) {
  const std::string s = std::string("a\"b\\c\n\t") + '\x01' + '\x1f' + "\x7f";
  EXPECT_EQ(Json::object().put("k\"", s).str(),
            "{\"k\\\"\":\"a\\\"b\\\\c\\u000a\\u0009\\u0001\\u001f\x7f\"}");
}

TEST(BenchJson, FloatsAreFixedDecimal) {
  Json j = Json::array();
  j.push(Fixed{1.0, 3})
      .push(Fixed{0.00004, 4})
      .push(Fixed{1e20, 1})
      .push(Fixed{2.75, 0})
      .push(Fixed{-3.14159, 2});
  EXPECT_EQ(j.str(), "[1.000,0.0000,100000000000000000000.0,3,-3.14]");
}

TEST(BenchReport, KeysKeepInsertionOrderInTheSharedShape) {
  hatbench::Report r{"demo", 7};
  r.config.put("zeta", uint64_t{18446744073709551615ull})
      .put("alpha", int64_t{-5})
      .put("list", std::vector<uint32_t>{0, 28});
  r.virt.put("digest", hatbench::hex64(0x2a))
      .put("ok", true)
      .put("none", nullptr)
      .put("inner", Json::object().put("z", 1).put("a", "s"));
  r.host.put_raw("before", "{\"x\":[1]}");
  EXPECT_EQ(r.str(),
            "{\"bench\":\"demo\",\"seed\":7,\"config\":{"
            "\"zeta\":18446744073709551615,\"alpha\":-5,\"list\":[0,28]},"
            "\"virtual\":{\"digest\":\"0x000000000000002a\",\"ok\":true,"
            "\"none\":null,\"inner\":{\"z\":1,\"a\":\"s\"}},"
            "\"host\":{\"before\":{\"x\":[1]}}}\n");
}

std::vector<std::string> names(const std::vector<hatbench::Row>& rows) {
  std::vector<std::string> out;
  for (const hatbench::Row& r : rows) out.push_back(r.name);
  return out;
}

TEST(BenchRows, FilterIsASubstringMatchThatKeepsListOrder) {
  std::vector<hatbench::Row> rows;
  for (const char* n : {"Fig05/64B/Eager/c4", "Fig05/512B/RFP/c4",
                        "Fig05/64B/RFP/c16", "Fig05/64B/Eager/c16"})
    rows.push_back({n, nullptr});
  EXPECT_EQ(names(hatbench::filter_rows(rows, "64B/")),
            (std::vector<std::string>{"Fig05/64B/Eager/c4",
                                      "Fig05/64B/RFP/c16",
                                      "Fig05/64B/Eager/c16"}));
  EXPECT_EQ(names(hatbench::filter_rows(rows, "RFP/c")),
            (std::vector<std::string>{"Fig05/512B/RFP/c4",
                                      "Fig05/64B/RFP/c16"}));
  EXPECT_EQ(names(hatbench::filter_rows(rows, "")), names(rows));
  EXPECT_TRUE(hatbench::filter_rows(rows, "fig05").empty());
}

TEST(BenchRows, RunWritesOneObjectPerSelectedRowInOrder) {
  const char* argv[] = {"bench_x", "--filter", "a/"};
  hatbench::Figure fig("demo", 3, const_cast<char**>(argv));
  std::vector<std::string> ran;
  for (const char* n : {"a/1", "b/2", "a/3"})
    fig.add(n, [&ran, n](Json& row) {
      ran.push_back(n);
      row.put("v", n[2] - '0');
    });
  EXPECT_EQ(fig.run(), 0);
  EXPECT_EQ(ran, (std::vector<std::string>{"a/1", "a/3"}));
  EXPECT_EQ(fig.report.seed, hatbench::kFigureSeed);
  EXPECT_EQ(fig.report.virt.str(),
            "{\"rows\":[{\"name\":\"a/1\",\"v\":1},"
            "{\"name\":\"a/3\",\"v\":3}]}");
  EXPECT_TRUE(std::regex_match(
      fig.report.host.str(),
      std::regex(R"(\{"rows":\[\{"name":"a/1","wall_us":[0-9]+\},)"
                 R"(\{"name":"a/3","wall_us":[0-9]+\}\]\})")))
      << fig.report.host.str();
}

TEST(BenchRowsDeathTest, AFilterThatMatchesNoRowExitsWithUsageStatus2) {
  uint32_t window = 1;
  const char* argv[] = {"bench_x", "--filter", "Fig05/9B"};
  hatbench::Figure fig("demo", 3, const_cast<char**>(argv),
                       {{"--window", &window}});
  fig.add("Fig05/64B/Eager/c4", [](Json&) {});
  EXPECT_EXIT(fig.run(), testing::ExitedWithCode(2),
              "--filter 'Fig05/9B' matches no row\nusage: bench_x "
              "\\[--out STR\\] \\[--filter STR\\] \\[--window N\\]");
}

TEST(BenchRowsDeathTest, AFigureRejectsAFlagItDoesNotDeclare) {
  // fig04 takes --trace but has no window to set.
  std::string trace;
  const char* argv[] = {"bench_fig04", "--window", "16"};
  EXPECT_EXIT(hatbench::Figure("fig04", 3, const_cast<char**>(argv),
                               {{"--trace", &trace}}),
              testing::ExitedWithCode(2),
              "unknown flag: --window\nusage: bench_fig04 \\[--out STR\\] "
              "\\[--filter STR\\] \\[--trace STR\\]");
}

}  // namespace
