// IDL compiler tests: lexing (comments, literals, suffixed numerics),
// parsing the full Fig. 7 grammar (service/function hints in all three
// lateral groups), Thrift constructs (structs, enums, typedefs, throws,
// containers), hint checking/filtering, and code-generation output.
#include <gtest/gtest.h>

#include "idl/check.h"
#include "idl/codegen.h"
#include "idl/parser.h"

namespace hatrpc::idl {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, BasicTokens) {
  auto toks = lex("service Echo { } // trailing");
  ASSERT_EQ(toks.size(), 5u);  // service Echo { } EOF
  EXPECT_TRUE(toks[0].is_ident("service"));
  EXPECT_TRUE(toks[1].is_ident("Echo"));
  EXPECT_TRUE(toks[2].is_symbol('{'));
  EXPECT_TRUE(toks[3].is_symbol('}'));
  EXPECT_EQ(toks[4].kind, Tok::kEof);
}

TEST(Lexer, CommentsAreSkipped) {
  auto toks = lex("a // line\n b # hash\n c /* block\nspanning */ d");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_TRUE(toks[0].is_ident("a"));
  EXPECT_TRUE(toks[3].is_ident("d"));
}

TEST(Lexer, StringLiterals) {
  auto toks = lex("\"hello\" 'single' \"esc\\\"aped\"");
  EXPECT_EQ(toks[0].text, "hello");
  EXPECT_EQ(toks[1].text, "single");
  EXPECT_EQ(toks[2].text, "esc\"aped");
}

TEST(Lexer, NumbersAndSuffixedNumerics) {
  auto toks = lex("42 -7 128k 10M");
  EXPECT_EQ(toks[0].kind, Tok::kInt);
  EXPECT_EQ(toks[0].text, "42");
  EXPECT_EQ(toks[1].text, "-7");
  EXPECT_EQ(toks[2].kind, Tok::kIdent);  // suffixed numeric (hint value)
  EXPECT_EQ(toks[2].text, "128k");
  EXPECT_EQ(toks[3].text, "10M");
}

TEST(Lexer, TracksLineNumbers) {
  auto toks = lex("a\nb\n\nc");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, ErrorsOnUnterminatedString) {
  EXPECT_THROW(lex("\"never closed"), LexError);
  EXPECT_THROW(lex("/* never closed"), LexError);
  EXPECT_THROW(lex("@"), LexError);
}

// ---------------------------------------------------------------------------
// Parser — the Fig. 7 grammar.
// ---------------------------------------------------------------------------

constexpr const char* kKvIdl = R"(
// The paper's Fig. 10 IDL, condensed.
namespace cpp hatkv

struct KVPair {
  1: string key;
  2: string value;
}

exception KVError {
  1: i32 code;
  2: string message;
}

service HatKV {
  hint: concurrency=128, perf_goal=throughput;
  s_hint: polling=event;

  string Get(1: string key) throws (1: KVError err)
    [ hint: payload_size=1024; c_hint: perf_goal=latency; ]
  void Put(1: string key, 2: string value)
    [ hint: payload_size=1024; ]
  list<string> MultiGet(1: list<string> keys)
    [ hint: payload_size=10k; ]
  oneway void Heartbeat()
    [ hint: priority=low; ]
}
)";

TEST(Parser, ParsesKvService) {
  Program p = parse(kKvIdl);
  EXPECT_EQ(p.cpp_namespace, "hatkv");
  ASSERT_EQ(p.structs.size(), 2u);
  EXPECT_EQ(p.structs[0].name, "KVPair");
  EXPECT_FALSE(p.structs[0].is_exception);
  EXPECT_TRUE(p.structs[1].is_exception);
  ASSERT_EQ(p.services.size(), 1u);
  const ServiceDef& s = p.services[0];
  EXPECT_EQ(s.name, "HatKV");
  ASSERT_EQ(s.functions.size(), 4u);
  EXPECT_EQ(s.hints.size(), 3u);  // concurrency, perf_goal, polling
  EXPECT_EQ(s.hints[2].side, hint::Side::kServer);
}

TEST(Parser, FunctionHintsAndThrows) {
  Program p = parse(kKvIdl);
  const FunctionDef& get = p.services[0].functions[0];
  EXPECT_EQ(get.name, "Get");
  ASSERT_EQ(get.hints.size(), 2u);
  EXPECT_EQ(get.hints[0].key, "payload_size");
  EXPECT_EQ(get.hints[0].value, "1024");
  EXPECT_EQ(get.hints[1].side, hint::Side::kClient);
  ASSERT_EQ(get.throws.size(), 1u);
  EXPECT_EQ(get.throws[0].type.name, "KVError");
  const FunctionDef& hb = p.services[0].functions[3];
  EXPECT_TRUE(hb.oneway);
}

TEST(Parser, ContainersAndFieldIds) {
  Program p = parse(kKvIdl);
  const FunctionDef& mget = p.services[0].functions[2];
  EXPECT_EQ(mget.ret.kind, TypeRef::Kind::kList);
  EXPECT_EQ(mget.ret.args[0].kind, TypeRef::Kind::kString);
  EXPECT_EQ(mget.args[0].id, 1);
}

TEST(Parser, EnumsAndTypedefs) {
  Program p = parse(R"(
    enum Mode { FAST = 1, SLOW = 5, AUTO }
    typedef map<string, i64> Counters
    struct S { 1: Mode m; 2: Counters c; }
  )");
  ASSERT_EQ(p.enums.size(), 1u);
  EXPECT_EQ(p.enums[0].values[2],
            (std::pair<std::string, int32_t>{"AUTO", 6}));
  // typedef resolved structurally at parse time
  EXPECT_EQ(p.structs[0].fields[1].type.kind, TypeRef::Kind::kMap);
}

TEST(Parser, ServiceExtends) {
  Program p = parse("service Base {} service Derived extends Base {}");
  EXPECT_EQ(p.services[1].extends, "Base");
}

TEST(Parser, AutoFieldIds) {
  Program p = parse("struct S { i32 a; i32 b; 9: i32 c; i32 d; }");
  EXPECT_EQ(p.structs[0].fields[0].id, 1);
  EXPECT_EQ(p.structs[0].fields[1].id, 2);
  EXPECT_EQ(p.structs[0].fields[2].id, 9);
  EXPECT_EQ(p.structs[0].fields[3].id, 10);
}

TEST(Parser, HintListWithMultipleEntries) {
  Program p = parse(R"(
    service S {
      hint: perf_goal=latency, concurrency=16, numa_binding=true;
      void f();
    }
  )");
  EXPECT_EQ(p.services[0].hints.size(), 3u);
}

TEST(Parser, SyntaxErrorsAreReported) {
  EXPECT_THROW(parse("service {"), ParseError);
  EXPECT_THROW(parse("service S { hint perf_goal=latency; }"), ParseError);
  EXPECT_THROW(parse("service S { hint: =latency; }"), ParseError);
  EXPECT_THROW(parse("service S { hint: perf_goal latency; }"), ParseError);
  EXPECT_THROW(parse("struct S { 1: unknowntype"), ParseError);
}

// A function named 'hint' must still parse (contextual keywords).
TEST(Parser, HintIsContextualKeyword) {
  Program p = parse("service S { void hint(); }");
  EXPECT_EQ(p.services[0].functions[0].name, "hint");
}

// ---------------------------------------------------------------------------
// Checker — validation, filtering, merging.
// ---------------------------------------------------------------------------

TEST(Checker, BuildsHierarchicalHints) {
  Program p = parse(kKvIdl);
  CheckResult r = check(p);
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.services.size(), 1u);
  const hint::ServiceHints& h = r.services[0].hints;
  const hint::Value* conc =
      h.lookup("Get", hint::Key::kConcurrency, hint::Perspective::kClient);
  ASSERT_NE(conc, nullptr);
  EXPECT_EQ(conc->num, 128);
  const hint::Value* goal =
      h.lookup("Get", hint::Key::kPerfGoal, hint::Perspective::kClient);
  ASSERT_NE(goal, nullptr);
  EXPECT_EQ(goal->goal, hint::PerfGoal::kLatency);  // c_hint override
  const hint::Value* mget =
      h.lookup("MultiGet", hint::Key::kPayloadSize,
               hint::Perspective::kClient);
  ASSERT_NE(mget, nullptr);
  EXPECT_EQ(mget->num, 10 * 1024);
}

TEST(Checker, FiltersUnknownKeysWithWarning) {
  Program p = parse("service S { hint: bogus=1, perf_goal=latency; void f(); }");
  CheckResult r = check(p);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].severity, Diagnostic::Severity::kWarning);
  EXPECT_FALSE(r.has_errors());
  // The valid hint survived the filter.
  EXPECT_NE(r.services[0].hints.lookup("f", hint::Key::kPerfGoal,
                                       hint::Perspective::kClient),
            nullptr);
}

TEST(Checker, FiltersBadValues) {
  Program p = parse("service S { hint: perf_goal=warp_speed; void f(); }");
  CheckResult r = check(p);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.services[0].hints.lookup("f", hint::Key::kPerfGoal,
                                       hint::Perspective::kClient),
            nullptr);
}

TEST(Checker, StrictModePromotesToError) {
  Program p = parse("service S { hint: bogus=1; void f(); }");
  CheckResult r = check(p, /*strict=*/true);
  EXPECT_TRUE(r.has_errors());
}

// ---------------------------------------------------------------------------
// Code generation (structural checks; behaviour is covered by the
// generated-code end-to-end test target).
// ---------------------------------------------------------------------------

std::string generate(const char* idl) {
  Program p = parse(idl);
  CheckResult r = check(p);
  return generate_cpp(p, r);
}

TEST(Codegen, EmitsStructsClientsHandlersAndHints) {
  std::string code = generate(kKvIdl);
  EXPECT_NE(code.find("struct KVPair"), std::string::npos);
  EXPECT_NE(code.find("struct KVError"), std::string::npos);
  EXPECT_NE(code.find("class HatKVClient"), std::string::npos);
  EXPECT_NE(code.find("class HatKVIf"), std::string::npos);
  EXPECT_NE(code.find("inline void register_HatKV"), std::string::npos);
  EXPECT_NE(code.find("HatKV_hints()"), std::string::npos);
  EXPECT_NE(code.find("namespace hatkv"), std::string::npos);
  // Hint map embeds the validated values.
  EXPECT_NE(code.find("\"128\""), std::string::npos);
  EXPECT_NE(code.find("kPayloadSize"), std::string::npos);
}

TEST(Codegen, ClientSignaturesUseTaskAndConstRefs) {
  std::string code = generate(kKvIdl);
  EXPECT_NE(code.find("hatrpc::sim::Task<std::string> Get(const "
                      "std::string& key)"),
            std::string::npos);
  EXPECT_NE(
      code.find("hatrpc::sim::Task<std::vector<std::string>> MultiGet"),
      std::string::npos);
}

TEST(Codegen, ListReserveIsClampedToTheBytesLeft) {
  // A hostile list size must not reach the allocator unchecked.
  std::string code = generate(kKvIdl);
  EXPECT_NE(code.find(".reserve(std::min<size_t>("), std::string::npos);
  EXPECT_NE(code.find("_p.buffer().readable()"), std::string::npos);
}

TEST(Codegen, ThrowsClausesGenerateExceptionPaths) {
  std::string code = generate(kKvIdl);
  EXPECT_NE(code.find("catch (const KVError& _ex)"), std::string::npos);
  EXPECT_NE(code.find("throw err;"), std::string::npos);
}

TEST(Codegen, EnumsSerializeAsI32) {
  std::string code = generate(
      "enum E { A = 1 } struct S { 1: E e; } service Svc { E f(1: E x); }");
  EXPECT_NE(code.find("enum class E : int32_t"), std::string::npos);
  EXPECT_NE(code.find("writeI32(static_cast<int32_t>"), std::string::npos);
  EXPECT_NE(code.find("static_cast<E>(_p.readI32())"), std::string::npos);
}

TEST(Codegen, ConstantsAreEmitted) {
  std::string code = generate(
      "const i32 BATCH = 10\n"
      "const string VERSION = \"1.2\"\n"
      "const double RATIO = 0.5\n"
      "service S { void f(); }");
  EXPECT_NE(code.find("inline constexpr int32_t BATCH = 10;"),
            std::string::npos);
  EXPECT_NE(code.find("inline const std::string VERSION = \"1.2\";"),
            std::string::npos);
  EXPECT_NE(code.find("inline constexpr double RATIO = 0.5;"),
            std::string::npos);
}

TEST(Codegen, FilteredHintsDoNotAppear) {
  std::string code =
      generate("service S { hint: bogus=7, concurrency=4; void f(); }");
  EXPECT_EQ(code.find("bogus"), std::string::npos);
  EXPECT_NE(code.find("\"4\""), std::string::npos);
}

}  // namespace
}  // namespace hatrpc::idl
