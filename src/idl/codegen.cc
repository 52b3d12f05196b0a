#include "idl/codegen.h"

#include <set>
#include <sstream>

namespace hatrpc::idl {

namespace {

class Writer {
 public:
  Writer& line(const std::string& s = "") {
    for (int i = 0; i < indent_ && !s.empty(); ++i) out_ << "  ";
    out_ << s << "\n";
    return *this;
  }
  void open(const std::string& s) {
    line(s);
    ++indent_;
  }
  void close(const std::string& s = "}") {
    --indent_;
    line(s);
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
  int indent_ = 0;
};

class Generator {
 public:
  Generator(const Program& prog, const CheckResult& checked,
            const CodegenOptions& opts)
      : prog_(prog), checked_(checked), opts_(opts) {
    for (const auto& e : prog.enums) enums_.insert(e.name);
    for (const auto& s : prog.structs) structs_.insert(s.name);
  }

  std::string run() {
    w_.line("// " + opts_.guard_comment);
    w_.line("#pragma once");
    w_.line();
    w_.line("#include <algorithm>");
    w_.line("#include <map>");
    w_.line("#include <set>");
    w_.line("#include <string>");
    w_.line("#include <utility>");
    w_.line("#include <vector>");
    w_.line();
    w_.line("#include \"core/runtime.h\"");
    w_.line("#include \"hint/hint.h\"");
    w_.line();
    std::string ns = prog_.cpp_namespace;
    for (auto& c : ns)
      if (c == '.') c = ':';
    // "a.b" became "a:b"; expand single colons to "::".
    std::string ns2;
    for (size_t i = 0; i < ns.size(); ++i) {
      ns2 += ns[i];
      if (ns[i] == ':' && (i + 1 >= ns.size() || ns[i + 1] != ':'))
        ns2 += ':';
    }
    if (!ns2.empty()) w_.open("namespace " + ns2 + " {");
    w_.line();
    for (const auto& c : prog_.consts) emit_const(c);
    if (!prog_.consts.empty()) w_.line();
    for (const auto& e : prog_.enums) emit_enum(e);
    for (const auto& s : prog_.structs) emit_struct(s);
    for (const auto& s : prog_.services) emit_service(s);
    if (!ns2.empty()) w_.close("}  // namespace " + ns2);
    return w_.str();
  }

 private:
  // --- type helpers ----------------------------------------------------------

  std::string cpp_type(const TypeRef& t) const {
    using K = TypeRef::Kind;
    switch (t.kind) {
      case K::kVoid: return "void";
      case K::kBool: return "bool";
      case K::kByte: return "int8_t";
      case K::kI16: return "int16_t";
      case K::kI32: return "int32_t";
      case K::kI64: return "int64_t";
      case K::kDouble: return "double";
      case K::kString:
      case K::kBinary: return "std::string";
      case K::kNamed: return t.name;
      case K::kList: return "std::vector<" + cpp_type(t.args[0]) + ">";
      case K::kSet: return "std::set<" + cpp_type(t.args[0]) + ">";
      case K::kMap:
        return "std::map<" + cpp_type(t.args[0]) + ", " +
               cpp_type(t.args[1]) + ">";
    }
    return "void";
  }

  std::string arg_type(const TypeRef& t) const {
    std::string ty = cpp_type(t);
    using K = TypeRef::Kind;
    bool by_value = t.kind == K::kBool || t.kind == K::kByte ||
                    t.kind == K::kI16 || t.kind == K::kI32 ||
                    t.kind == K::kI64 || t.kind == K::kDouble ||
                    (t.kind == K::kNamed && enums_.count(t.name));
    return by_value ? ty : "const " + ty + "&";
  }

  std::string ttype_of(const TypeRef& t) const {
    using K = TypeRef::Kind;
    switch (t.kind) {
      case K::kBool: return "kBool";
      case K::kByte: return "kByte";
      case K::kI16: return "kI16";
      case K::kI32: return "kI32";
      case K::kI64: return "kI64";
      case K::kDouble: return "kDouble";
      case K::kString:
      case K::kBinary: return "kString";
      case K::kNamed: return enums_.count(t.name) ? "kI32" : "kStruct";
      case K::kList: return "kList";
      case K::kSet: return "kSet";
      case K::kMap: return "kMap";
      case K::kVoid: break;
    }
    return "kStop";
  }

  std::string tt(const std::string& name) const {
    return "hatrpc::thrift::TType::" + name;
  }

  // --- value (de)serialization ---------------------------------------------

  void emit_write_value(const TypeRef& t, const std::string& expr) {
    using K = TypeRef::Kind;
    switch (t.kind) {
      case K::kBool: w_.line("_p.writeBool(" + expr + ");"); return;
      case K::kByte: w_.line("_p.writeByte(" + expr + ");"); return;
      case K::kI16: w_.line("_p.writeI16(" + expr + ");"); return;
      case K::kI32: w_.line("_p.writeI32(" + expr + ");"); return;
      case K::kI64: w_.line("_p.writeI64(" + expr + ");"); return;
      case K::kDouble: w_.line("_p.writeDouble(" + expr + ");"); return;
      case K::kString:
      case K::kBinary: w_.line("_p.writeString(" + expr + ");"); return;
      case K::kNamed:
        if (enums_.count(t.name))
          w_.line("_p.writeI32(static_cast<int32_t>(" + expr + "));");
        else
          w_.line(expr + ".write(_p);");
        return;
      case K::kList:
      case K::kSet: {
        std::string begin = t.kind == K::kList ? "writeListBegin"
                                               : "writeSetBegin";
        std::string end = t.kind == K::kList ? "writeListEnd" : "writeSetEnd";
        w_.line("_p." + begin + "(" + tt(ttype_of(t.args[0])) +
                ", static_cast<uint32_t>(" + expr + ".size()));");
        std::string v = fresh("_e");
        w_.open("for (const auto& " + v + " : " + expr + ") {");
        emit_write_value(t.args[0], v);
        w_.close();
        w_.line("_p." + end + "();");
        return;
      }
      case K::kMap: {
        w_.line("_p.writeMapBegin(" + tt(ttype_of(t.args[0])) + ", " +
                tt(ttype_of(t.args[1])) + ", static_cast<uint32_t>(" + expr +
                ".size()));");
        std::string v = fresh("_kv");
        w_.open("for (const auto& " + v + " : " + expr + ") {");
        emit_write_value(t.args[0], v + ".first");
        emit_write_value(t.args[1], v + ".second");
        w_.close();
        w_.line("_p.writeMapEnd();");
        return;
      }
      case K::kVoid: return;
    }
  }

  void emit_read_value(const TypeRef& t, const std::string& expr) {
    using K = TypeRef::Kind;
    switch (t.kind) {
      case K::kBool: w_.line(expr + " = _p.readBool();"); return;
      case K::kByte: w_.line(expr + " = _p.readByte();"); return;
      case K::kI16: w_.line(expr + " = _p.readI16();"); return;
      case K::kI32: w_.line(expr + " = _p.readI32();"); return;
      case K::kI64: w_.line(expr + " = _p.readI64();"); return;
      case K::kDouble: w_.line(expr + " = _p.readDouble();"); return;
      case K::kString:
      case K::kBinary: w_.line(expr + " = _p.readString();"); return;
      case K::kNamed:
        if (enums_.count(t.name))
          w_.line(expr + " = static_cast<" + t.name + ">(_p.readI32());");
        else
          w_.line(expr + ".read(_p);");
        return;
      case K::kList: {
        std::string h = fresh("_lh"), i = fresh("_i"), v = fresh("_v");
        w_.line("auto " + h + " = _p.readListBegin();");
        w_.line(expr + ".clear();");
        w_.line(expr + ".reserve(std::min<size_t>(" + h +
                ".size, _p.buffer().readable()));");
        w_.open("for (uint32_t " + i + " = 0; " + i + " < " + h + ".size; ++" +
                i + ") {");
        w_.line(cpp_type(t.args[0]) + " " + v + "{};");
        emit_read_value(t.args[0], v);
        w_.line(expr + ".push_back(std::move(" + v + "));");
        w_.close();
        w_.line("_p.readListEnd();");
        return;
      }
      case K::kSet: {
        std::string h = fresh("_sh"), i = fresh("_i"), v = fresh("_v");
        w_.line("auto " + h + " = _p.readSetBegin();");
        w_.line(expr + ".clear();");
        w_.open("for (uint32_t " + i + " = 0; " + i + " < " + h + ".size; ++" +
                i + ") {");
        w_.line(cpp_type(t.args[0]) + " " + v + "{};");
        emit_read_value(t.args[0], v);
        w_.line(expr + ".insert(std::move(" + v + "));");
        w_.close();
        w_.line("_p.readSetEnd();");
        return;
      }
      case K::kMap: {
        std::string h = fresh("_mh"), i = fresh("_i"), k = fresh("_k"),
                    v = fresh("_v");
        w_.line("auto " + h + " = _p.readMapBegin();");
        w_.line(expr + ".clear();");
        w_.open("for (uint32_t " + i + " = 0; " + i + " < " + h + ".size; ++" +
                i + ") {");
        w_.line(cpp_type(t.args[0]) + " " + k + "{};");
        emit_read_value(t.args[0], k);
        w_.line(cpp_type(t.args[1]) + " " + v + "{};");
        emit_read_value(t.args[1], v);
        w_.line(expr + ".emplace(std::move(" + k + "), std::move(" + v +
                "));");
        w_.close();
        w_.line("_p.readMapEnd();");
        return;
      }
      case K::kVoid: return;
    }
  }

  void emit_struct_fields_write(const std::vector<Field>& fields,
                                const std::string& name) {
    w_.line("_p.writeStructBegin(\"" + name + "\");");
    for (const Field& f : fields) {
      w_.line("_p.writeFieldBegin(" + tt(ttype_of(f.type)) + ", " +
              std::to_string(f.id) + ");");
      emit_write_value(f.type, f.name);
      w_.line("_p.writeFieldEnd();");
    }
    w_.line("_p.writeFieldStop();");
    w_.line("_p.writeStructEnd();");
  }

  // --- top-level emitters -----------------------------------------------------

  void emit_const(const ConstDef& c) {
    using K = TypeRef::Kind;
    if (c.is_string_literal || c.type.kind == K::kString) {
      w_.line("inline const std::string " + c.name + " = \"" +
              c.value_raw + "\";");
    } else if (c.type.kind == K::kBool) {
      w_.line("inline constexpr bool " + c.name + " = " + c.value_raw + ";");
    } else if (c.type.kind == K::kDouble) {
      w_.line("inline constexpr double " + c.name + " = " + c.value_raw +
              ";");
    } else {
      w_.line("inline constexpr " + cpp_type(c.type) + " " + c.name + " = " +
              c.value_raw + ";");
    }
  }

  void emit_enum(const EnumDef& e) {
    w_.open("enum class " + e.name + " : int32_t {");
    for (const auto& [name, value] : e.values)
      w_.line(name + " = " + std::to_string(value) + ",");
    w_.close("};");
    w_.line();
  }

  void emit_field_read_switch(const std::vector<Field>& fields) {
    w_.line("_p.readStructBegin();");
    w_.open("while (true) {");
    w_.line("auto _f = _p.readFieldBegin();");
    w_.line("if (_f.type == hatrpc::thrift::TType::kStop) break;");
    w_.line("bool _known = false;");
    for (const Field& f : fields) {
      w_.open("if (!_known && _f.id == " + std::to_string(f.id) +
              " && _f.type == " + tt(ttype_of(f.type)) + ") {");
      emit_read_value(f.type, f.name);
      w_.line("_known = true;");
      w_.close();
    }
    w_.line("if (!_known) _p.skip(_f.type);");
    w_.line("_p.readFieldEnd();");
    w_.close();
    w_.line("_p.readStructEnd();");
  }

  void emit_struct(const StructDef& s) {
    if (s.is_exception)
      w_.line("// exception type — throwable from handlers, rethrown at "
              "clients");
    w_.open("struct " + s.name + " {");
    for (const Field& f : s.fields) {
      std::string def = f.default_raw ? " = " + *f.default_raw : "{}";
      w_.line(cpp_type(f.type) + " " + f.name + def + ";");
    }
    w_.line();
    w_.line("bool operator==(const " + s.name + "&) const = default;");
    w_.line();
    w_.open("void write(hatrpc::thrift::TProtocol& _p) const {");
    emit_struct_fields_write(s.fields, s.name);
    w_.close();
    w_.line();
    w_.open("void read(hatrpc::thrift::TProtocol& _p) {");
    emit_field_read_switch(s.fields);
    w_.close();
    w_.close("};");
    w_.line();
  }

  void emit_service(const ServiceDef& s) {
    emit_hints(s);
    emit_client(s);
    emit_handler(s);
  }

  const hint::ServiceHints* checked_hints(const std::string& service) const {
    for (const auto& cs : checked_.services)
      if (cs.name == service) return &cs.hints;
    return nullptr;
  }

  void emit_hints(const ServiceDef& s) {
    w_.line("/// The hierarchical hint map of service " + s.name +
            " (§4.2: emitted with the generated skeletons).");
    w_.open("inline hatrpc::hint::ServiceHints " + s.name + "_hints() {");
    w_.line("using hatrpc::hint::Key;");
    w_.line("using hatrpc::hint::Side;");
    w_.line("using hatrpc::hint::parse_key;");
    w_.line("using hatrpc::hint::parse_value;");
    w_.line("hatrpc::hint::ServiceHints _h;");
    auto emit_group = [&](const hint::HintGroup& g, const std::string& dest) {
      for (auto side : {hint::Side::kShared, hint::Side::kServer,
                        hint::Side::kClient}) {
        for (const auto& [key, value] : g.side(side)) {
          std::string side_name =
              side == hint::Side::kShared  ? "kShared"
              : side == hint::Side::kServer ? "kServer"
                                            : "kClient";
          w_.line(dest + ".add(Side::" + side_name + ", Key::" +
                  key_enum(key) + ", parse_value(Key::" + key_enum(key) +
                  ", \"" + value.raw + "\"));");
        }
      }
    };
    if (const hint::ServiceHints* h = checked_hints(s.name)) {
      emit_group(h->service(), "_h.service()");
      for (const auto& [fn, group] : h->functions())
        emit_group(group, "_h.function(\"" + fn + "\")");
    }
    w_.line("return _h;");
    w_.close();
    w_.line();
  }

  static std::string key_enum(hint::Key k) {
    switch (k) {
      case hint::Key::kPerfGoal: return "kPerfGoal";
      case hint::Key::kConcurrency: return "kConcurrency";
      case hint::Key::kPayloadSize: return "kPayloadSize";
      case hint::Key::kNumaBinding: return "kNumaBinding";
      case hint::Key::kTransport: return "kTransport";
      case hint::Key::kPolling: return "kPolling";
      case hint::Key::kPriority: return "kPriority";
      case hint::Key::kShardMap: return "kShardMap";
    }
    return "?";
  }

  std::string args_decl(const FunctionDef& f) const {
    std::string out;
    for (size_t i = 0; i < f.args.size(); ++i) {
      if (i) out += ", ";
      out += arg_type(f.args[i].type) + " " + f.args[i].name;
    }
    return out;
  }

  void emit_client(const ServiceDef& s) {
    w_.line("/// Client stub for service " + s.name + ".");
    w_.open("class " + s.name + "Client {");
    w_.line(" public:");
    w_.line("explicit " + s.name +
            "Client(hatrpc::core::HatCaller& _caller) : caller_(_caller) {}");
    w_.line();
    for (const FunctionDef& f : s.functions) {
      std::string ret = f.oneway ? "void" : cpp_type(f.ret);
      w_.open("hatrpc::sim::Task<" + ret + "> " + f.name + "(" +
              args_decl(f) + ") {");
      w_.line("hatrpc::core::Envelope _env = caller_.begin_call(\"" +
              f.name + "\");");
      w_.line("hatrpc::thrift::TBinaryProtocol _p(_env.buffer());");
      emit_struct_fields_write(f.args, f.name + "_args");
      w_.line("hatrpc::core::Reply _reply = co_await caller_.call(\"" +
              f.name + "\", std::move(_env));");
      if (f.oneway) {
        w_.line("(void)_reply;");
        w_.line("co_return;");
        w_.close();
        w_.line();
        continue;
      }
      w_.line("hatrpc::thrift::TMemoryBuffer _rb = "
              "hatrpc::thrift::TMemoryBuffer::wrap(_reply.view());");
      w_.line("hatrpc::thrift::TBinaryProtocol _rp(_rb);");
      // Result struct: field 0 = success, declared throws by their ids.
      bool has_ret = f.ret.kind != TypeRef::Kind::kVoid;
      if (has_ret) w_.line(cpp_type(f.ret) + " _success{};");
      for (const Field& t : f.throws)
        w_.line(cpp_type(t.type) + " " + t.name + "{}; bool _has_" + t.name +
                " = false;");
      w_.line("{");
      w_.line("auto& _p = _rp;");
      w_.line("_p.readStructBegin();");
      w_.open("while (true) {");
      w_.line("auto _f = _p.readFieldBegin();");
      w_.line("if (_f.type == hatrpc::thrift::TType::kStop) break;");
      w_.line("bool _known = false;");
      if (has_ret) {
        w_.open("if (_f.id == 0 && _f.type == " + tt(ttype_of(f.ret)) +
                ") {");
        emit_read_value(f.ret, "_success");
        w_.line("_known = true;");
        w_.close();
      }
      for (const Field& t : f.throws) {
        w_.open("if (!_known && _f.id == " + std::to_string(t.id) +
                " && _f.type == " + tt(ttype_of(t.type)) + ") {");
        emit_read_value(t.type, t.name);
        w_.line("_has_" + t.name + " = true;");
        w_.line("_known = true;");
        w_.close();
      }
      w_.line("if (!_known) _p.skip(_f.type);");
      w_.close();
      w_.line("_p.readStructEnd();");
      w_.line("}");
      for (const Field& t : f.throws)
        w_.line("if (_has_" + t.name + ") throw " + t.name + ";");
      if (has_ret) w_.line("co_return _success;");
      else w_.line("co_return;");
      w_.close();
      w_.line();
    }
    w_.line(" private:");
    w_.line("hatrpc::core::HatCaller& caller_;");
    w_.close("};");
    w_.line();
  }

  void emit_handler(const ServiceDef& s) {
    w_.line("/// Abstract handler interface for service " + s.name + ".");
    w_.open("class " + s.name + "If {");
    w_.line(" public:");
    w_.line("virtual ~" + s.name + "If() = default;");
    for (const FunctionDef& f : s.functions) {
      std::string ret = f.oneway ? "void" : cpp_type(f.ret);
      w_.line("virtual hatrpc::sim::Task<" + ret + "> " + f.name + "(" +
              args_decl(f) + ") = 0;");
    }
    w_.close("};");
    w_.line();
    w_.line("/// Binds a handler into a dispatcher (server skeleton).");
    w_.open("inline void register_" + s.name +
            "(hatrpc::core::HatDispatcher& _d, " + s.name + "If& _h) {");
    for (const FunctionDef& f : s.functions) {
      w_.open("_d.register_method(\"" + f.name +
              "\", [&_h](hatrpc::core::View _in, "
              "hatrpc::thrift::TMemoryBuffer& _out) -> "
              "hatrpc::sim::Task<void> {");
      w_.line("hatrpc::thrift::TMemoryBuffer _ab = "
              "hatrpc::thrift::TMemoryBuffer::wrap(_in);");
      w_.line("hatrpc::thrift::TBinaryProtocol _ap(_ab);");
      for (const Field& a : f.args) w_.line(cpp_type(a.type) + " " + a.name + "{};");
      w_.line("{");
      w_.line("auto& _p = _ap;");
      w_.line("_p.readStructBegin();");
      w_.open("while (true) {");
      w_.line("auto _f = _p.readFieldBegin();");
      w_.line("if (_f.type == hatrpc::thrift::TType::kStop) break;");
      w_.line("bool _known = false;");
      for (const Field& a : f.args) {
        w_.open("if (!_known && _f.id == " + std::to_string(a.id) +
                " && _f.type == " + tt(ttype_of(a.type)) + ") {");
        emit_read_value(a.type, a.name);
        w_.line("_known = true;");
        w_.close();
      }
      w_.line("if (!_known) _p.skip(_f.type);");
      w_.close();
      w_.line("_p.readStructEnd();");
      w_.line("}");
      // The result struct goes straight after the reply header in _out.
      w_.line("hatrpc::thrift::TBinaryProtocol _rp(_out);");
      std::string call_args;
      for (size_t i = 0; i < f.args.size(); ++i) {
        if (i) call_args += ", ";
        call_args += "std::move(" + f.args[i].name + ")";
      }
      bool has_ret = !f.oneway && f.ret.kind != TypeRef::Kind::kVoid;
      w_.line("_rp.writeStructBegin(\"" + f.name + "_result\");");
      bool has_throws = !f.throws.empty();
      if (has_throws) w_.open("try {");
      else w_.open("{");
      if (has_ret) {
        w_.line(cpp_type(f.ret) + " _ret = co_await _h." + f.name + "(" +
                call_args + ");");
        w_.line("_rp.writeFieldBegin(" + tt(ttype_of(f.ret)) + ", 0);");
        {
          // emit write of _ret via a local alias named _p
          w_.line("{");
          w_.line("auto& _p = _rp;");
          emit_write_value(f.ret, "_ret");
          w_.line("}");
        }
        w_.line("_rp.writeFieldEnd();");
      } else {
        w_.line("co_await _h." + f.name + "(" + call_args + ");");
      }
      for (const Field& t : f.throws) {
        w_.close("} catch (const " + cpp_type(t.type) + "& _ex) {");
        ++dummy_;  // keep fresh() names unique across branches
        w_.open("");
        w_.line("_rp.writeFieldBegin(" + tt(ttype_of(t.type)) + ", " +
                std::to_string(t.id) + ");");
        w_.line("{");
        w_.line("auto& _p = _rp;");
        emit_write_value(t.type, "_ex");
        w_.line("}");
        w_.line("_rp.writeFieldEnd();");
      }
      w_.close("}");
      w_.line("_rp.writeFieldStop();");
      w_.line("_rp.writeStructEnd();");
      w_.close("});");
    }
    w_.close("}");
    w_.line();
  }

  std::string fresh(const std::string& base) {
    return base + std::to_string(dummy_++);
  }

  const Program& prog_;
  const CheckResult& checked_;
  CodegenOptions opts_;
  Writer w_;
  std::set<std::string> enums_;
  std::set<std::string> structs_;
  int dummy_ = 0;
};

}  // namespace

std::string generate_cpp(const Program& prog, const CheckResult& checked,
                         const CodegenOptions& opts) {
  return Generator(prog, checked, opts).run();
}

}  // namespace hatrpc::idl
