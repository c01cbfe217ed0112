#include "liberty/core/lss/elaborator.hpp"

#include <cmath>
#include <set>

#include "liberty/core/lss/parser.hpp"
#include "liberty/support/error.hpp"
#include "liberty/support/strings.hpp"

namespace liberty::core::lss {

namespace {

[[noreturn]] void fail(const SourceLoc& loc, const std::string& msg) {
  throw liberty::SpecError(loc.file, loc.line, loc.col, msg);
}

/// Lexical environment: a stack of scopes mapping names to values.
class Env {
 public:
  void push() { scopes_.emplace_back(); }
  void pop() { scopes_.pop_back(); }

  void define(const SourceLoc& loc, const std::string& name,
              liberty::Value v) {
    auto& scope = scopes_.back();
    if (scope.count(name) != 0) {
      fail(loc, "redefinition of '" + name + "' in the same scope");
    }
    scope[name] = std::move(v);
  }

  [[nodiscard]] const liberty::Value* lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

 private:
  std::vector<std::map<std::string, liberty::Value>> scopes_;
};

class Evaluator {
 public:
  explicit Evaluator(const Env& env) : env_(env) {}

  [[nodiscard]] liberty::Value eval(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::Literal:
        return e.literal;
      case Expr::Kind::Var: {
        const liberty::Value* v = env_.lookup(e.var);
        if (v == nullptr) fail(e.loc, "undefined name '" + e.var + "'");
        return *v;
      }
      case Expr::Kind::Unary: {
        const liberty::Value a = eval(*e.a);
        if (e.un_op == UnOp::Not) return liberty::Value(!truthy(e.loc, a));
        if (a.is_real()) return liberty::Value(-a.as_real());
        return liberty::Value(-int_of(e.loc, a));
      }
      case Expr::Kind::Binary:
        return eval_binary(e);
      case Expr::Kind::Ternary:
        return truthy(e.loc, eval(*e.a)) ? eval(*e.b) : eval(*e.c);
    }
    fail(e.loc, "internal: bad expression kind");
  }

  [[nodiscard]] std::int64_t eval_int(const Expr& e) const {
    return int_of(e.loc, eval(e));
  }

 private:
  [[nodiscard]] static bool truthy(const SourceLoc& loc,
                                   const liberty::Value& v) {
    if (v.is_bool() || v.is_int()) return v.as_bool();
    fail(loc, "expected a boolean, got " + v.to_string());
  }

  [[nodiscard]] static std::int64_t int_of(const SourceLoc& loc,
                                           const liberty::Value& v) {
    if (v.is_int() || v.is_bool()) return v.as_int();
    fail(loc, "expected an integer, got " + v.to_string());
  }

  [[nodiscard]] liberty::Value eval_binary(const Expr& e) const {
    // Short-circuit logicals first.
    if (e.bin_op == BinOp::And) {
      return liberty::Value(truthy(e.loc, eval(*e.a)) &&
                            truthy(e.loc, eval(*e.b)));
    }
    if (e.bin_op == BinOp::Or) {
      return liberty::Value(truthy(e.loc, eval(*e.a)) ||
                            truthy(e.loc, eval(*e.b)));
    }

    const liberty::Value a = eval(*e.a);
    const liberty::Value b = eval(*e.b);

    if (e.bin_op == BinOp::Eq) return liberty::Value(a == b);
    if (e.bin_op == BinOp::Ne) return liberty::Value(!(a == b));

    // String concatenation and comparison.
    if (a.is_string() || b.is_string()) {
      if (!a.is_string() || !b.is_string()) {
        // Mixed string/number concatenation renders the number.
        auto str = [](const liberty::Value& v) {
          return v.is_string() ? v.as_string() : v.to_string();
        };
        if (e.bin_op == BinOp::Add) return liberty::Value(str(a) + str(b));
        fail(e.loc, "invalid operands to string operator");
      }
      switch (e.bin_op) {
        case BinOp::Add: return liberty::Value(a.as_string() + b.as_string());
        case BinOp::Lt: return liberty::Value(a.as_string() < b.as_string());
        case BinOp::Le: return liberty::Value(a.as_string() <= b.as_string());
        case BinOp::Gt: return liberty::Value(a.as_string() > b.as_string());
        case BinOp::Ge: return liberty::Value(a.as_string() >= b.as_string());
        default: fail(e.loc, "invalid string operator");
      }
    }

    // Numeric: promote to real when either side is real.
    if (a.is_real() || b.is_real()) {
      const double x = a.as_real();
      const double y = b.as_real();
      switch (e.bin_op) {
        case BinOp::Add: return liberty::Value(x + y);
        case BinOp::Sub: return liberty::Value(x - y);
        case BinOp::Mul: return liberty::Value(x * y);
        case BinOp::Div:
          if (y == 0.0) fail(e.loc, "division by zero");
          return liberty::Value(x / y);
        case BinOp::Mod:
          if (y == 0.0) fail(e.loc, "modulo by zero");
          return liberty::Value(std::fmod(x, y));
        case BinOp::Lt: return liberty::Value(x < y);
        case BinOp::Le: return liberty::Value(x <= y);
        case BinOp::Gt: return liberty::Value(x > y);
        case BinOp::Ge: return liberty::Value(x >= y);
        default: fail(e.loc, "invalid numeric operator");
      }
    }

    const std::int64_t x = int_of(e.loc, a);
    const std::int64_t y = int_of(e.loc, b);
    switch (e.bin_op) {
      case BinOp::Add: return liberty::Value(x + y);
      case BinOp::Sub: return liberty::Value(x - y);
      case BinOp::Mul: return liberty::Value(x * y);
      case BinOp::Div:
        if (y == 0) fail(e.loc, "division by zero");
        return liberty::Value(x / y);
      case BinOp::Mod:
        if (y == 0) fail(e.loc, "modulo by zero");
        return liberty::Value(x % y);
      case BinOp::Lt: return liberty::Value(x < y);
      case BinOp::Le: return liberty::Value(x <= y);
      case BinOp::Gt: return liberty::Value(x > y);
      case BinOp::Ge: return liberty::Value(x >= y);
      default: fail(e.loc, "invalid integer operator");
    }
  }

  const Env& env_;
};

/// A resolved connection endpoint reference.
struct EndpointRef {
  std::string instance;
  std::string port;
  bool has_index = false;
  std::size_t index = 0;
  SourceLoc loc;
};

class ElabContext {
 public:
  ElabContext(const ModuleRegistry& registry, Netlist& netlist)
      : registry_(registry), netlist_(netlist) {}

  void run(const Spec& spec,
           const std::map<std::string, liberty::Value>& overrides) {
    overrides_ = &overrides;
    env_.push();
    exec_block(spec.top, /*prefix=*/"", /*mctx=*/nullptr,
               /*top_level=*/true);
    env_.pop();
    apply_connects();
    // An override only takes effect through a top-level param of that
    // name; one that matched none would silently run the default model.
    for (const auto& [name, value] : overrides) {
      if (top_params_.count(name) == 0) {
        throw liberty::ElaborationError(
            "parameter override '" + name +
            "' names no top-level param of the spec (top-level params: " +
            (top_params_.empty() ? std::string("none")
                                 : liberty::join({top_params_.begin(),
                                                  top_params_.end()},
                                                 ", ")) +
            ")");
      }
    }
  }

 private:
  /// Per-hierarchical-module elaboration state.
  struct ModuleCtx {
    std::set<std::string> declared_ports;
    std::set<std::string> exported_ports;
    std::string prefix;  // "h." for instance h
  };

  struct PendingConnect {
    EndpointRef from;
    EndpointRef to;
  };

  void exec_block(const std::vector<StmtPtr>& stmts, const std::string& prefix,
                  ModuleCtx* mctx, bool top_level) {
    for (const auto& s : stmts) exec_stmt(*s, prefix, mctx, top_level);
  }

  void exec_stmt(const Stmt& s, const std::string& prefix, ModuleCtx* mctx,
                 bool top_level) {
    Evaluator ev(env_);
    switch (s.kind) {
      case Stmt::Kind::Param: {
        liberty::Value v;
        if (top_level) top_params_.insert(s.param.name);
        if (top_level && overrides_->count(s.param.name) != 0) {
          v = overrides_->at(s.param.name);
        } else {
          v = ev.eval(*s.param.default_value);
        }
        env_.define(s.loc, s.param.name, std::move(v));
        return;
      }
      case Stmt::Kind::Module: {
        if (modules_.count(s.module_def.name) != 0) {
          fail(s.loc, "module '" + s.module_def.name + "' defined twice");
        }
        modules_[s.module_def.name] = &s.module_def;
        return;
      }
      case Stmt::Kind::Instance:
        exec_instance(s, prefix);
        return;
      case Stmt::Kind::Connect: {
        PendingConnect pc;
        pc.from = resolve_ref(s.connect.from, prefix);
        pc.to = resolve_ref(s.connect.to, prefix);
        connects_.push_back(std::move(pc));
        return;
      }
      case Stmt::Kind::Port: {
        if (mctx == nullptr) fail(s.loc, "port declaration outside module");
        if (!mctx->declared_ports.insert(s.port.name).second) {
          fail(s.loc, "port '" + s.port.name + "' declared twice");
        }
        return;
      }
      case Stmt::Kind::Export: {
        if (mctx == nullptr) fail(s.loc, "'export' outside module");
        if (mctx->declared_ports.count(s.exp.alias) == 0) {
          fail(s.loc, "export of undeclared port '" + s.exp.alias + "'");
        }
        if (!mctx->exported_ports.insert(s.exp.alias).second) {
          fail(s.loc, "port '" + s.exp.alias + "' exported twice");
        }
        const EndpointRef inner = resolve_ref(s.exp.inner, mctx->prefix);
        if (inner.has_index) {
          fail(s.loc, "export target cannot carry an endpoint index");
        }
        // The alias chain is resolved transitively at connect time.
        const std::string alias_key =
            mctx->prefix.substr(0, mctx->prefix.size() - 1) + "." +
            s.exp.alias;
        aliases_[alias_key] = inner.instance + "." + inner.port;
        return;
      }
      case Stmt::Kind::For: {
        const std::int64_t begin = ev.eval_int(*s.for_stmt.begin);
        const std::int64_t end = ev.eval_int(*s.for_stmt.end);
        const Stmt* const outer = loop_;
        loop_ = &s;
        // The whole trip count is charged up front, so a loop that alone
        // overruns the budget fails before its first iteration.
        if (end > begin) {
          charge(static_cast<std::uint64_t>(end) -
                     static_cast<std::uint64_t>(begin),
                 s.loc);
        }
        for (std::int64_t i = begin; i < end; ++i) {
          env_.push();
          env_.define(s.loc, s.for_stmt.var, liberty::Value(i));
          exec_block(s.for_stmt.body, prefix, mctx, top_level);
          env_.pop();
        }
        loop_ = outer;
        return;
      }
      case Stmt::Kind::If: {
        const liberty::Value cond = ev.eval(*s.if_stmt.cond);
        env_.push();
        if (cond.as_bool()) {
          exec_block(s.if_stmt.then_body, prefix, mctx, top_level);
        } else {
          exec_block(s.if_stmt.else_body, prefix, mctx, top_level);
        }
        env_.pop();
        return;
      }
    }
  }

  [[nodiscard]] std::string seg_to_string(const RefSeg& seg) const {
    Evaluator ev(env_);
    std::string out = seg.ident;
    if (seg.index) {
      out += '[' + std::to_string(ev.eval_int(*seg.index)) + ']';
    }
    return out;
  }

  /// Spend `steps` of the elaboration budget (kMaxElaborationSteps).  An
  /// overrun is reported at the innermost loop being expanded, or at `loc`
  /// when no loop is.
  void charge(std::uint64_t steps, const SourceLoc& loc) {
    if (steps <= kMaxElaborationSteps - steps_) {
      steps_ += steps;
      return;
    }
    const std::string budget =
        "the elaboration budget of " + std::to_string(kMaxElaborationSteps) +
        " steps (for iterations plus instances)";
    if (loop_ != nullptr) {
      fail(loop_->loc,
           "for loop over '" + loop_->for_stmt.var + "' exceeds " + budget);
    }
    fail(loc, "instance exceeds " + budget);
  }

  void exec_instance(const Stmt& s, const std::string& prefix) {
    charge(1, s.loc);
    const InstanceDecl& decl = s.instance;
    std::string name = prefix;
    for (std::size_t i = 0; i < decl.name.size(); ++i) {
      if (i != 0) name += '.';
      name += seg_to_string(decl.name[i]);
    }

    // Evaluate customization arguments in the caller's environment.
    Evaluator ev(env_);
    Params params;
    std::vector<std::pair<std::string, liberty::Value>> arg_values;
    for (const auto& [pname, pexpr] : decl.args) {
      liberty::Value v = ev.eval(*pexpr);
      params.set(pname, v);
      arg_values.emplace_back(pname, std::move(v));
    }

    // LSS-defined hierarchical modules shadow registry templates.
    const auto lss_it = modules_.find(decl.template_path);
    if (lss_it != modules_.end()) {
      instantiate_lss_module(s.loc, *lss_it->second, name, arg_values);
      return;
    }

    if (!registry_.has(decl.template_path)) {
      fail(s.loc, "unknown module template '" + decl.template_path + "'");
    }
    try {
      netlist_.add(registry_.instantiate(decl.template_path, name, params));
    } catch (const liberty::ElaborationError& e) {
      fail(s.loc, e.what());
    }
  }

  void instantiate_lss_module(
      const SourceLoc& loc, const ModuleDef& def, const std::string& name,
      const std::vector<std::pair<std::string, liberty::Value>>& args) {
    if (++depth_ > kMaxDepth) {
      fail(loc, "module instantiation depth exceeds " +
                    std::to_string(kMaxDepth) +
                    " (unbounded recursive module?)");
    }

    // Hierarchical modules elaborate in a closed scope: only their declared
    // parameters are visible, with instance arguments overriding defaults.
    std::map<std::string, liberty::Value> arg_map(args.begin(), args.end());
    std::set<std::string> declared_params;
    for (const auto& st : def.body) {
      if (st->kind == Stmt::Kind::Param) declared_params.insert(st->param.name);
    }
    for (const auto& [pname, v] : arg_map) {
      (void)v;
      if (declared_params.count(pname) == 0) {
        fail(loc, "module '" + def.name + "' has no parameter '" + pname +
                      "'");
      }
    }

    env_.push();
    ModuleCtx mctx;
    mctx.prefix = name + ".";

    // Walk the body; param defaults yield to instance arguments.
    for (const auto& st : def.body) {
      if (st->kind == Stmt::Kind::Param) {
        const auto it = arg_map.find(st->param.name);
        if (it != arg_map.end()) {
          env_.define(st->loc, st->param.name, it->second);
        } else {
          Evaluator ev(env_);
          env_.define(st->loc, st->param.name,
                      ev.eval(*st->param.default_value));
        }
        continue;
      }
      exec_stmt(*st, mctx.prefix, &mctx, /*top_level=*/false);
    }

    // Every declared port must be exported, or connections to it would
    // dangle silently — exactly the class of error LSE exists to surface.
    for (const auto& p : mctx.declared_ports) {
      if (mctx.exported_ports.count(p) == 0) {
        fail(loc, "module '" + def.name + "' declares port '" + p +
                      "' but never exports it");
      }
    }

    env_.pop();
    --depth_;
  }

  [[nodiscard]] EndpointRef resolve_ref(const Ref& ref,
                                        const std::string& prefix) const {
    EndpointRef out;
    out.loc = ref.loc;
    Evaluator ev(env_);

    std::string inst = prefix;
    for (std::size_t i = 0; i + 1 < ref.segs.size(); ++i) {
      if (i != 0) inst += '.';
      inst += seg_to_string(ref.segs[i]);
    }
    const RefSeg& last = ref.segs.back();
    out.instance = std::move(inst);
    out.port = last.ident;
    if (last.index) {
      const std::int64_t idx = ev.eval_int(*last.index);
      if (idx < 0) fail(ref.loc, "negative endpoint index");
      out.has_index = true;
      out.index = static_cast<std::size_t>(idx);
    }
    return out;
  }

  void apply_connects() {
    for (const auto& pc : connects_) {
      Port& from = lookup_port(pc.from);
      Port& to = lookup_port(pc.to);
      try {
        const std::size_t fi =
            pc.from.has_index ? pc.from.index : from.next_free();
        const std::size_t ti = pc.to.has_index ? pc.to.index : to.next_free();
        netlist_.connect_at(from, fi, to, ti);
      } catch (const liberty::ElaborationError& e) {
        fail(pc.from.loc, e.what());
      }
    }
  }

  [[nodiscard]] Port& lookup_port(const EndpointRef& ref) const {
    // Follow export aliases transitively.
    std::string full = ref.instance + "." + ref.port;
    std::size_t hops = 0;
    while (true) {
      const auto it = aliases_.find(full);
      if (it == aliases_.end()) break;
      full = it->second;
      if (++hops > kMaxDepth) fail(ref.loc, "export alias cycle at " + full);
    }
    const auto dot = full.rfind('.');
    const std::string inst = full.substr(0, dot);
    const std::string port = full.substr(dot + 1);
    Module* m = netlist_.find(inst);
    if (m == nullptr) {
      fail(ref.loc, "no instance named '" + inst + "'");
    }
    try {
      return m->port(port);
    } catch (const liberty::ElaborationError& e) {
      fail(ref.loc, e.what());
    }
  }

  static constexpr std::size_t kMaxDepth = 256;

  const ModuleRegistry& registry_;
  Netlist& netlist_;
  const std::map<std::string, liberty::Value>* overrides_ = nullptr;
  std::set<std::string> top_params_;  // top-level params elaborated
  Env env_;
  std::map<std::string, const ModuleDef*> modules_;
  std::map<std::string, std::string> aliases_;
  std::vector<PendingConnect> connects_;
  std::size_t depth_ = 0;
  std::uint64_t steps_ = 0;         // elaboration budget spent so far
  const Stmt* loop_ = nullptr;      // innermost for loop being expanded
};

}  // namespace

void Elaborator::elaborate(
    const Spec& spec, Netlist& netlist,
    const std::map<std::string, liberty::Value>& overrides) {
  ElabContext ctx(registry_, netlist);
  ctx.run(spec, overrides);
}

void build_from_lss(std::string_view source, const std::string& filename,
                    Netlist& netlist, const ModuleRegistry& registry,
                    const std::map<std::string, liberty::Value>& overrides) {
  const Spec spec = parse(source, filename);
  Elaborator elab(registry);
  elab.elaborate(spec, netlist, overrides);
  netlist.finalize();
}

}  // namespace liberty::core::lss
