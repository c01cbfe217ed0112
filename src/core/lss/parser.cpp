#include "liberty/core/lss/parser.hpp"

#include <fstream>
#include <sstream>

#include "liberty/core/lss/lexer.hpp"
#include "liberty/support/error.hpp"

namespace liberty::core::lss {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> toks, std::string file)
      : toks_(std::move(toks)), file_(std::move(file)) {}

  Spec parse_spec() {
    Spec spec;
    while (!at(Tok::End)) spec.top.push_back(parse_stmt(/*in_module=*/false));
    return spec;
  }

 private:
  [[nodiscard]] const Token& cur() const { return toks_[pos_]; }
  [[nodiscard]] bool at(Tok t) const { return cur().kind == t; }

  const Token& advance() { return toks_[pos_++]; }

  const Token& expect(Tok t, const char* what) {
    if (!at(t)) {
      fail(std::string("expected ") + std::string(tok_name(t)) + " (" + what +
           "), found " + std::string(tok_name(cur().kind)));
    }
    return advance();
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw liberty::SpecError(file_, cur().line, cur().col, msg);
  }

  [[nodiscard]] SourceLoc loc() const {
    return SourceLoc{file_, cur().line, cur().col};
  }

  // Every recursive production holds one of these for its extent, so a
  // hostile spec (100k nested parentheses, blocks or unary signs) ends in
  // a located diagnostic instead of overflowing the process stack.
  static constexpr std::size_t kMaxNesting = 256;
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxNesting) {
        p_.fail("nesting depth exceeds " + std::to_string(kMaxNesting));
      }
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  // --- statements ---------------------------------------------------------

  StmtPtr parse_stmt(bool in_module) {
    const Nest nest(*this);
    switch (cur().kind) {
      case Tok::KwParam: return parse_param();
      case Tok::KwInstance: return parse_instance();
      case Tok::KwConnect: return parse_connect();
      case Tok::KwFor: return parse_for(in_module);
      case Tok::KwIf: return parse_if(in_module);
      case Tok::KwModule:
        if (in_module) fail("module definitions cannot nest");
        return parse_module();
      case Tok::KwInport:
      case Tok::KwOutport:
        if (!in_module) fail("port declarations only appear inside modules");
        return parse_port();
      case Tok::KwExport:
        if (!in_module) fail("'export' only appears inside modules");
        return parse_export();
      default:
        fail("expected a statement, found " +
             std::string(tok_name(cur().kind)));
    }
  }

  std::vector<StmtPtr> parse_block(bool in_module) {
    expect(Tok::LBrace, "block");
    std::vector<StmtPtr> body;
    while (!at(Tok::RBrace)) body.push_back(parse_stmt(in_module));
    expect(Tok::RBrace, "block end");
    return body;
  }

  StmtPtr parse_param() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Param;
    s->loc = loc();
    expect(Tok::KwParam, "param");
    s->param.name = expect(Tok::Ident, "parameter name").text;
    expect(Tok::Assign, "parameter default");
    s->param.default_value = parse_expr();
    expect(Tok::Semi, "parameter declaration");
    return s;
  }

  /// Accept an identifier, treating the keyword `in` as the identifier
  /// "in": it is the conventional name of input ports, and the for-loop
  /// context that needs the keyword never appears where a name does.
  std::string expect_name(const char* what) {
    if (at(Tok::KwIn)) {
      advance();
      return "in";
    }
    return expect(Tok::Ident, what).text;
  }

  std::vector<RefSeg> parse_name_segs() {
    std::vector<RefSeg> segs;
    while (true) {
      RefSeg seg;
      seg.ident = expect_name("name segment");
      if (at(Tok::LBracket)) {
        advance();
        seg.index = parse_expr();
        expect(Tok::RBracket, "index");
      }
      segs.push_back(std::move(seg));
      if (!at(Tok::Dot)) break;
      advance();
    }
    return segs;
  }

  std::string parse_template_path() {
    std::string path = expect(Tok::Ident, "template name").text;
    while (at(Tok::Dot)) {
      advance();
      path += '.';
      path += expect(Tok::Ident, "template name segment").text;
    }
    return path;
  }

  StmtPtr parse_instance() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Instance;
    s->loc = loc();
    expect(Tok::KwInstance, "instance");
    s->instance.name = parse_name_segs();
    expect(Tok::Colon, "instance template");
    s->instance.template_path = parse_template_path();
    if (at(Tok::LBrace)) {
      advance();
      while (!at(Tok::RBrace)) {
        std::string pname = expect_name("parameter name");
        expect(Tok::Assign, "parameter value");
        s->instance.args.emplace_back(std::move(pname), parse_expr());
        expect(Tok::Semi, "parameter assignment");
      }
      expect(Tok::RBrace, "instance body");
    }
    expect(Tok::Semi, "instance declaration");
    return s;
  }

  Ref parse_ref() {
    Ref r;
    r.loc = loc();
    r.segs = parse_name_segs();
    if (r.segs.size() < 2) {
      throw liberty::SpecError(r.loc.file, r.loc.line, r.loc.col,
                               "reference must name instance.port");
    }
    return r;
  }

  StmtPtr parse_connect() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Connect;
    s->loc = loc();
    expect(Tok::KwConnect, "connect");
    s->connect.from = parse_ref();
    expect(Tok::Arrow, "connection");
    s->connect.to = parse_ref();
    expect(Tok::Semi, "connect statement");
    return s;
  }

  StmtPtr parse_port() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Port;
    s->loc = loc();
    s->port.is_input = at(Tok::KwInport);
    advance();
    s->port.name = expect_name("port name");
    expect(Tok::Semi, "port declaration");
    return s;
  }

  StmtPtr parse_export() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Export;
    s->loc = loc();
    expect(Tok::KwExport, "export");
    s->exp.inner = parse_ref();
    expect(Tok::KwAs, "export alias");
    s->exp.alias = expect_name("exported port name");
    expect(Tok::Semi, "export statement");
    return s;
  }

  StmtPtr parse_for(bool in_module) {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::For;
    s->loc = loc();
    expect(Tok::KwFor, "for");
    s->for_stmt.var = expect(Tok::Ident, "loop variable").text;
    expect(Tok::KwIn, "loop range");
    s->for_stmt.begin = parse_expr();
    expect(Tok::DotDot, "loop range");
    s->for_stmt.end = parse_expr();
    s->for_stmt.body = parse_block(in_module);
    return s;
  }

  StmtPtr parse_if(bool in_module) {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::If;
    s->loc = loc();
    expect(Tok::KwIf, "if");
    s->if_stmt.cond = parse_expr();
    s->if_stmt.then_body = parse_block(in_module);
    if (at(Tok::KwElse)) {
      advance();
      if (at(Tok::KwIf)) {
        const Nest nest(*this);  // an else-if chain recurses here directly
        s->if_stmt.else_body.push_back(parse_if(in_module));
      } else {
        s->if_stmt.else_body = parse_block(in_module);
      }
    }
    return s;
  }

  StmtPtr parse_module() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Module;
    s->loc = loc();
    expect(Tok::KwModule, "module");
    s->module_def.name = expect(Tok::Ident, "module name").text;
    s->module_def.body = parse_block(/*in_module=*/true);
    // Optional trailing semicolon after a module definition.
    if (at(Tok::Semi)) advance();
    return s;
  }

  // --- expressions (precedence climbing) -----------------------------------

  ExprPtr parse_expr() {
    const Nest nest(*this);
    return parse_ternary();
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_or();
    if (!at(Tok::Question)) return cond;
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::Ternary;
    e->loc = loc();
    advance();
    e->a = std::move(cond);
    e->b = parse_expr();
    expect(Tok::Colon, "ternary");
    e->c = parse_expr();
    return e;
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (at(Tok::OrOr)) {
      auto e = make_bin(BinOp::Or, std::move(lhs));
      advance();
      e->b = parse_and();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_cmp();
    while (at(Tok::AndAnd)) {
      auto e = make_bin(BinOp::And, std::move(lhs));
      advance();
      e->b = parse_cmp();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    while (true) {
      BinOp op;
      switch (cur().kind) {
        case Tok::Eq: op = BinOp::Eq; break;
        case Tok::Ne: op = BinOp::Ne; break;
        case Tok::Lt: op = BinOp::Lt; break;
        case Tok::Le: op = BinOp::Le; break;
        case Tok::Gt: op = BinOp::Gt; break;
        case Tok::Ge: op = BinOp::Ge; break;
        default: return lhs;
      }
      auto e = make_bin(op, std::move(lhs));
      advance();
      e->b = parse_add();
      lhs = std::move(e);
    }
  }

  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    while (at(Tok::Plus) || at(Tok::Minus)) {
      const BinOp op = at(Tok::Plus) ? BinOp::Add : BinOp::Sub;
      auto e = make_bin(op, std::move(lhs));
      advance();
      e->b = parse_mul();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_mul() {
    ExprPtr lhs = parse_unary();
    while (at(Tok::Star) || at(Tok::Slash) || at(Tok::Percent)) {
      BinOp op = BinOp::Mul;
      if (at(Tok::Slash)) op = BinOp::Div;
      if (at(Tok::Percent)) op = BinOp::Mod;
      auto e = make_bin(op, std::move(lhs));
      advance();
      e->b = parse_unary();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (at(Tok::Minus) || at(Tok::Not)) {
      const Nest nest(*this);
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Unary;
      e->loc = loc();
      e->un_op = at(Tok::Minus) ? UnOp::Neg : UnOp::Not;
      advance();
      e->a = parse_unary();
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    auto e = std::make_unique<Expr>();
    e->loc = loc();
    switch (cur().kind) {
      case Tok::Int:
        e->kind = Expr::Kind::Literal;
        e->literal = liberty::Value(advance().int_val);
        return e;
      case Tok::Real:
        e->kind = Expr::Kind::Literal;
        e->literal = liberty::Value(advance().real_val);
        return e;
      case Tok::String:
        e->kind = Expr::Kind::Literal;
        e->literal = liberty::Value(advance().text);
        return e;
      case Tok::KwTrue:
        advance();
        e->kind = Expr::Kind::Literal;
        e->literal = liberty::Value(true);
        return e;
      case Tok::KwFalse:
        advance();
        e->kind = Expr::Kind::Literal;
        e->literal = liberty::Value(false);
        return e;
      case Tok::Ident:
        e->kind = Expr::Kind::Var;
        e->var = advance().text;
        return e;
      case Tok::LParen: {
        advance();
        ExprPtr inner = parse_expr();
        expect(Tok::RParen, "parenthesized expression");
        return inner;
      }
      default:
        fail("expected an expression, found " +
             std::string(tok_name(cur().kind)));
    }
  }

  ExprPtr make_bin(BinOp op, ExprPtr lhs) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::Binary;
    e->loc = loc();
    e->bin_op = op;
    e->a = std::move(lhs);
    return e;
  }

  std::vector<Token> toks_;
  std::string file_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Spec parse(std::string_view source, const std::string& filename) {
  Parser p(tokenize(source, filename), filename);
  return p.parse_spec();
}

Spec parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw liberty::SpecError(path, 0, 0, "cannot open specification file");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), path);
}

}  // namespace liberty::core::lss
