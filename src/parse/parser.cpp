#include "parse/parser.hpp"

#include <algorithm>
#include <string>

namespace lol::parse {

using ast::ExprPtr;
using ast::StmtList;
using ast::StmtPtr;
using lex::Keyword;
using lex::TokKind;
using support::ParseError;

// ---------------------------------------------------------------------------
// Token cursor
// ---------------------------------------------------------------------------

const lex::Token& Parser::peek(std::size_t ahead) const {
  std::size_t i = std::min(pos_ + ahead, toks_.size() - 1);
  return toks_[i];
}

const lex::Token& Parser::advance() {
  const lex::Token& t = toks_[pos_];
  if (pos_ + 1 < toks_.size()) ++pos_;
  return t;
}

bool Parser::check(TokKind k) const { return peek().kind == k; }

bool Parser::check_kw(Keyword k) const { return peek().is_keyword(k); }

bool Parser::match(TokKind k) {
  if (!check(k)) return false;
  advance();
  return true;
}

bool Parser::match_kw(Keyword k) {
  if (!check_kw(k)) return false;
  advance();
  return true;
}

const lex::Token& Parser::expect(TokKind k, const char* what) {
  if (!check(k)) {
    fail(std::string("expected ") + what + ", found " + peek().describe());
  }
  return advance();
}

const lex::Token& Parser::expect_kw(Keyword k) {
  if (!check_kw(k)) {
    fail("expected '" + std::string(lex::keyword_spelling(k)) + "', found " +
         peek().describe());
  }
  return advance();
}

void Parser::skip_newlines() {
  while (check(TokKind::kNewline)) advance();
}

void Parser::expect_end_of_statement() {
  if (check(TokKind::kEof)) return;
  if (!check(TokKind::kNewline)) {
    fail("expected end of statement, found " + peek().describe());
  }
  skip_newlines();
}

void Parser::fail(const std::string& msg) const {
  throw ParseError(msg, peek().loc);
}

Parser::Nest::Nest(Parser& parser) : p(parser) {
  if (p.depth_ >= kMaxNesting) {
    p.fail("statements and expressions nest more than " +
           std::to_string(kMaxNesting) + " deep");
  }
  ++p.depth_;
}

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

ast::Program Parser::parse_program() {
  ast::Program prog;
  skip_newlines();
  expect_kw(Keyword::kHai);
  if (check(TokKind::kNumbar)) {
    prog.version = advance().numbar;
  } else if (check(TokKind::kNumbr)) {
    prog.version = static_cast<double>(advance().numbr);
  }
  expect_end_of_statement();
  prog.body = parse_body({Keyword::kKthxbye});
  expect_kw(Keyword::kKthxbye);
  skip_newlines();
  if (!check(TokKind::kEof)) {
    fail("unexpected content after KTHXBYE: " + peek().describe());
  }
  return prog;
}

ast::ExprPtr Parser::parse_expression_only() {
  skip_newlines();
  ExprPtr e = parse_expr();
  skip_newlines();
  if (!check(TokKind::kEof)) {
    fail("unexpected content after expression: " + peek().describe());
  }
  return e;
}

bool Parser::at_stop(const std::vector<Keyword>& stops) const {
  if (check(TokKind::kEof)) return true;
  for (Keyword k : stops) {
    if (check_kw(k)) return true;
  }
  return false;
}

StmtList Parser::parse_body(const std::vector<Keyword>& stops) {
  StmtList out;
  while (true) {
    skip_newlines();
    if (at_stop(stops)) return out;
    out.push_back(parse_statement());
    if (at_stop(stops)) return out;
    expect_end_of_statement();
  }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

StmtPtr Parser::parse_statement() {
  const Nest nest(*this);
  const lex::Token& t = peek();
  if (t.kind == TokKind::kKeyword) {
    switch (t.keyword) {
      case Keyword::kIHasA:
        advance();
        return parse_decl(ast::DeclScope::kPrivate);
      case Keyword::kWeHasA:
        advance();
        return parse_decl(ast::DeclScope::kSymmetric);
      case Keyword::kVisible:
        advance();
        return parse_visible(/*to_stderr=*/false);
      case Keyword::kInvisible:
        advance();
        return parse_visible(/*to_stderr=*/true);
      case Keyword::kGimmeh:
        advance();
        return parse_gimmeh();
      case Keyword::kORly:
        return parse_orly();
      case Keyword::kWtf:
        return parse_wtf();
      case Keyword::kImInYr:
        return parse_loop();
      case Keyword::kGtfo:
        advance();
        return std::make_unique<ast::GtfoStmt>(t.loc);
      case Keyword::kFoundYr: {
        advance();
        ExprPtr v = parse_expr();
        return std::make_unique<ast::FoundYrStmt>(std::move(v), t.loc);
      }
      case Keyword::kHowIzI:
        return parse_funcdef();
      case Keyword::kCanHas:
        advance();
        return parse_canhas();
      case Keyword::kHugz:
        advance();
        return std::make_unique<ast::HugzStmt>(t.loc);
      case Keyword::kImSrslyMesinWif:
        advance();
        return parse_lock(ast::LockOp::kAcquire);
      case Keyword::kImMesinWif:
        advance();
        return parse_lock(ast::LockOp::kTry);
      case Keyword::kDunMesinWif:
        advance();
        return parse_lock(ast::LockOp::kRelease);
      case Keyword::kTxtMahBff:
        return parse_txt();
      case Keyword::kUr:
      case Keyword::kMah:
      case Keyword::kIt:
      case Keyword::kSrs:
        return parse_lvalue_statement();
      default:
        break;  // expression-leading keyword
    }
    // Any other keyword must begin an expression statement.
    ExprPtr e = parse_expr();
    return std::make_unique<ast::ExprStmt>(std::move(e), t.loc);
  }
  if (t.kind == TokKind::kIdentifier) return parse_lvalue_statement();
  if (t.kind == TokKind::kNumbr || t.kind == TokKind::kNumbar ||
      t.kind == TokKind::kYarn) {
    ExprPtr e = parse_expr();
    return std::make_unique<ast::ExprStmt>(std::move(e), t.loc);
  }
  fail("expected a statement, found " + peek().describe());
}

StmtPtr Parser::parse_lvalue_statement() {
  support::SourceLoc loc = peek().loc;
  ExprPtr target = parse_postfix_primary();
  if (match_kw(Keyword::kR)) {
    ExprPtr value = parse_expr();
    return std::make_unique<ast::AssignStmt>(std::move(target),
                                             std::move(value), loc);
  }
  if (match_kw(Keyword::kIsNowA)) {
    ast::TypeKind ty = parse_type(/*allow_plural=*/false);
    return std::make_unique<ast::CastToStmt>(std::move(target), ty, loc);
  }
  return std::make_unique<ast::ExprStmt>(std::move(target), loc);
}

StmtPtr Parser::parse_decl(ast::DeclScope scope) {
  auto decl = std::make_unique<ast::VarDeclStmt>(peek().loc);
  decl->scope = scope;
  decl->name = expect(TokKind::kIdentifier, "variable name").text;

  bool want_an = false;  // clauses after the first are introduced by AN
  while (true) {
    if (want_an) {
      // A clause separator is required between clauses; stop when the
      // next token is not AN or AN is not followed by a clause keyword.
      if (!check_kw(Keyword::kAn)) break;
      const lex::Token& after = peek(1);
      bool clause_follows =
          after.kind == TokKind::kKeyword &&
          (after.keyword == Keyword::kItz || after.keyword == Keyword::kItzA ||
           after.keyword == Keyword::kItzSrslyA ||
           after.keyword == Keyword::kItzLotzA ||
           after.keyword == Keyword::kItzSrslyLotzA ||
           after.keyword == Keyword::kTharIz ||
           after.keyword == Keyword::kImSharinIt);
      if (!clause_follows) break;
      advance();  // consume AN
    }
    if (match_kw(Keyword::kItzA)) {
      decl->declared_type = parse_type(/*allow_plural=*/false);
    } else if (match_kw(Keyword::kItzSrslyA)) {
      decl->srsly = true;
      decl->declared_type = parse_type(/*allow_plural=*/false);
    } else if (match_kw(Keyword::kItzLotzA)) {
      decl->is_array = true;
      decl->declared_type = parse_type(/*allow_plural=*/true);
    } else if (match_kw(Keyword::kItzSrslyLotzA)) {
      decl->is_array = true;
      decl->srsly = true;
      decl->declared_type = parse_type(/*allow_plural=*/true);
    } else if (match_kw(Keyword::kTharIz)) {
      decl->array_size = parse_expr();
    } else if (match_kw(Keyword::kImSharinIt)) {
      decl->sharin = true;
    } else if (match_kw(Keyword::kItz)) {
      decl->init = parse_expr();
    } else {
      if (want_an) fail("expected a declaration clause after 'AN'");
      break;  // bare declaration: I HAS A x
    }
    want_an = true;
  }
  if (decl->array_size && !decl->is_array) {
    throw ParseError("'THAR IZ' requires an array declaration (LOTZ A ...)",
                     decl->loc);
  }
  return decl;
}

StmtPtr Parser::parse_visible(bool to_stderr) {
  auto stmt = std::make_unique<ast::VisibleStmt>(peek().loc);
  stmt->to_stderr = to_stderr;
  while (!check(TokKind::kNewline) && !check(TokKind::kEof) &&
         !check(TokKind::kBang)) {
    stmt->args.push_back(parse_expr());
    match_kw(Keyword::kAn);  // optional separator between arguments
  }
  if (match(TokKind::kBang)) stmt->newline = false;
  if (stmt->args.empty()) fail("VISIBLE requires at least one argument");
  return stmt;
}

StmtPtr Parser::parse_gimmeh() {
  support::SourceLoc loc = peek().loc;
  ExprPtr target = parse_postfix_primary();
  return std::make_unique<ast::GimmehStmt>(std::move(target), loc);
}

StmtPtr Parser::parse_orly() {
  auto stmt = std::make_unique<ast::ORlyStmt>(peek().loc);
  expect_kw(Keyword::kORly);
  expect(TokKind::kQuestion, "'?' after 'O RLY'");
  skip_newlines();
  // YA RLY is optional: the paper's §V trylock fragment goes straight to
  // NO WAI (`IM SRSLY MESIN WIF x, O RLY? / NO WAI, ... / OIC`).
  if (match_kw(Keyword::kYaRly)) {
    stmt->ya_rly =
        parse_body({Keyword::kMebbe, Keyword::kNoWai, Keyword::kOic});
  }
  while (check_kw(Keyword::kMebbe)) {
    advance();
    ExprPtr cond = parse_expr();
    StmtList body =
        parse_body({Keyword::kMebbe, Keyword::kNoWai, Keyword::kOic});
    stmt->mebbe.emplace_back(std::move(cond), std::move(body));
  }
  if (match_kw(Keyword::kNoWai)) {
    stmt->no_wai = parse_body({Keyword::kOic});
  }
  expect_kw(Keyword::kOic);
  return stmt;
}

StmtPtr Parser::parse_wtf() {
  auto stmt = std::make_unique<ast::WtfStmt>(peek().loc);
  expect_kw(Keyword::kWtf);
  expect(TokKind::kQuestion, "'?' after 'WTF'");
  skip_newlines();
  if (!check_kw(Keyword::kOmg) && !check_kw(Keyword::kOmgwtf)) {
    fail("expected 'OMG' case after 'WTF?'");
  }
  while (check_kw(Keyword::kOmg)) {
    advance();
    ast::WtfStmt::Case c;
    c.literal = parse_expr();
    c.body = parse_body({Keyword::kOmg, Keyword::kOmgwtf, Keyword::kOic});
    stmt->cases.push_back(std::move(c));
  }
  if (match_kw(Keyword::kOmgwtf)) {
    stmt->has_default = true;
    stmt->default_body = parse_body({Keyword::kOic});
  }
  expect_kw(Keyword::kOic);
  return stmt;
}

StmtPtr Parser::parse_loop() {
  auto stmt = std::make_unique<ast::LoopStmt>(peek().loc);
  expect_kw(Keyword::kImInYr);
  stmt->label = expect(TokKind::kIdentifier, "loop label").text;
  if (match_kw(Keyword::kUppin)) {
    stmt->update = ast::LoopUpdate::kUppin;
  } else if (match_kw(Keyword::kNerfin)) {
    stmt->update = ast::LoopUpdate::kNerfin;
  } else if (check(TokKind::kIdentifier) && peek(1).is_keyword(Keyword::kYr)) {
    stmt->update = ast::LoopUpdate::kFunc;
    stmt->func = advance().text;
  }
  if (stmt->update != ast::LoopUpdate::kNone) {
    expect_kw(Keyword::kYr);
    stmt->var = expect(TokKind::kIdentifier, "loop variable").text;
  }
  if (match_kw(Keyword::kTil)) {
    stmt->cond_kind = ast::LoopCond::kTil;
    stmt->cond = parse_expr();
  } else if (match_kw(Keyword::kWile)) {
    stmt->cond_kind = ast::LoopCond::kWile;
    stmt->cond = parse_expr();
  }
  stmt->body = parse_body({Keyword::kImOuttaYr});
  expect_kw(Keyword::kImOuttaYr);
  std::string close = expect(TokKind::kIdentifier, "loop label").text;
  if (close != stmt->label) {
    throw ParseError("loop closed with label '" + close + "' but opened as '" +
                         stmt->label + "'",
                     stmt->loc);
  }
  return stmt;
}

StmtPtr Parser::parse_funcdef() {
  auto stmt = std::make_unique<ast::FuncDefStmt>(peek().loc);
  expect_kw(Keyword::kHowIzI);
  stmt->name = expect(TokKind::kIdentifier, "function name").text;
  if (match_kw(Keyword::kYr)) {
    stmt->params.push_back(
        expect(TokKind::kIdentifier, "parameter name").text);
    while (check_kw(Keyword::kAn) && peek(1).is_keyword(Keyword::kYr)) {
      advance();  // AN
      advance();  // YR
      stmt->params.push_back(
          expect(TokKind::kIdentifier, "parameter name").text);
    }
  }
  stmt->body = parse_body({Keyword::kIfUSaySo});
  expect_kw(Keyword::kIfUSaySo);
  return stmt;
}

StmtPtr Parser::parse_canhas() {
  support::SourceLoc loc = peek().loc;
  std::string lib = expect(TokKind::kIdentifier, "library name").text;
  expect(TokKind::kQuestion, "'?' after library name");
  return std::make_unique<ast::CanHasStmt>(std::move(lib), loc);
}

StmtPtr Parser::parse_lock(ast::LockOp op) {
  support::SourceLoc loc = peek().loc;
  ExprPtr target = parse_postfix_primary();
  // The lock is associated with the variable, not an element; strip any
  // index so `IM MESIN WIF arr'Z 0` locks `arr`.
  if (target->kind == ast::ExprKind::kIndex) {
    target = std::move(static_cast<ast::IndexExpr&>(*target).base);
  }
  return std::make_unique<ast::LockStmt>(op, std::move(target), loc);
}

StmtPtr Parser::parse_txt() {
  auto stmt = std::make_unique<ast::TxtStmt>(peek().loc);
  expect_kw(Keyword::kTxtMahBff);
  stmt->target_pe = parse_expr();
  if (match_kw(Keyword::kAnStuff)) {
    stmt->block_form = true;
    stmt->body = parse_body({Keyword::kTtyl});
    expect_kw(Keyword::kTtyl);
    return stmt;
  }
  // Single-statement form: `TXT MAH BFF e, stmt`.
  if (!match(TokKind::kNewline)) {
    fail("expected ',' (or 'AN STUFF') after TXT MAH BFF target");
  }
  skip_newlines();
  stmt->body.push_back(parse_statement());
  return stmt;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ast::TypeKind Parser::parse_type(bool allow_plural) {
  const lex::Token& t = peek();
  if (t.kind == TokKind::kKeyword) {
    switch (t.keyword) {
      case Keyword::kNumbr:
        advance();
        return ast::TypeKind::kNumbr;
      case Keyword::kNumbar:
        advance();
        return ast::TypeKind::kNumbar;
      case Keyword::kYarn:
        advance();
        return ast::TypeKind::kYarn;
      case Keyword::kTroof:
        advance();
        return ast::TypeKind::kTroof;
      case Keyword::kNoob:
        advance();
        return ast::TypeKind::kNoob;
      case Keyword::kNumbrs:
        if (allow_plural) {
          advance();
          return ast::TypeKind::kNumbr;
        }
        break;
      case Keyword::kNumbars:
        if (allow_plural) {
          advance();
          return ast::TypeKind::kNumbar;
        }
        break;
      case Keyword::kYarns:
        if (allow_plural) {
          advance();
          return ast::TypeKind::kYarn;
        }
        break;
      case Keyword::kTroofs:
        if (allow_plural) {
          advance();
          return ast::TypeKind::kTroof;
        }
        break;
      default:
        break;
    }
  }
  fail("expected a type name, found " + peek().describe());
}

ExprPtr Parser::parse_binary(ast::BinOp op) {
  support::SourceLoc loc = toks_[pos_ - 1].loc;
  ExprPtr lhs = parse_expr();
  match_kw(Keyword::kAn);  // AN is optional per the 1.2 spec
  ExprPtr rhs = parse_expr();
  return std::make_unique<ast::BinaryExpr>(op, std::move(lhs), std::move(rhs),
                                           loc);
}

ExprPtr Parser::parse_nary(ast::NaryOp op) {
  support::SourceLoc loc = toks_[pos_ - 1].loc;
  std::vector<ExprPtr> operands;
  // Operands until MKAY; MKAY may be omitted at end of statement.
  while (!check_kw(Keyword::kMkay) && !check(TokKind::kNewline) &&
         !check(TokKind::kEof) && !check(TokKind::kBang)) {
    operands.push_back(parse_expr());
    match_kw(Keyword::kAn);
  }
  match_kw(Keyword::kMkay);
  if (operands.empty()) {
    fail(std::string(ast::nary_op_name(op)) + " requires at least one operand");
  }
  return std::make_unique<ast::NaryExpr>(op, std::move(operands), loc);
}

ExprPtr Parser::parse_unary(ast::UnOp op) {
  support::SourceLoc loc = toks_[pos_ - 1].loc;
  ExprPtr v = parse_expr();
  return std::make_unique<ast::UnaryExpr>(op, std::move(v), loc);
}

ExprPtr Parser::parse_call() {
  support::SourceLoc loc = toks_[pos_ - 1].loc;
  std::string callee = expect(TokKind::kIdentifier, "function name").text;
  std::vector<ExprPtr> args;
  if (match_kw(Keyword::kYr)) {
    args.push_back(parse_expr());
    while (check_kw(Keyword::kAn) && peek(1).is_keyword(Keyword::kYr)) {
      advance();  // AN
      advance();  // YR
      args.push_back(parse_expr());
    }
  }
  // MKAY terminates the call; tolerated-omitted at end of statement.
  if (!match_kw(Keyword::kMkay) && !check(TokKind::kNewline) &&
      !check(TokKind::kEof)) {
    fail("expected 'MKAY' to close 'I IZ' call");
  }
  return std::make_unique<ast::CallExpr>(std::move(callee), std::move(args),
                                         loc);
}

ExprPtr Parser::parse_postfix_primary() {
  support::SourceLoc loc = peek().loc;
  ast::Locality locality = ast::Locality::kDefault;
  if (match_kw(Keyword::kUr)) {
    locality = ast::Locality::kRemote;
  } else if (match_kw(Keyword::kMah)) {
    locality = ast::Locality::kLocal;
  }
  ExprPtr base;
  if (check(TokKind::kIdentifier)) {
    base = std::make_unique<ast::VarRef>(advance().text, locality, loc);
  } else if (match_kw(Keyword::kSrs)) {
    ExprPtr name = parse_expr();
    base = std::make_unique<ast::SrsRef>(std::move(name), locality, loc);
  } else if (check_kw(Keyword::kIt)) {
    advance();
    if (locality != ast::Locality::kDefault) {
      throw ParseError("IT cannot be UR/MAH qualified", loc);
    }
    base = std::make_unique<ast::ItRef>(loc);
  } else {
    fail("expected a variable after " +
         std::string(locality == ast::Locality::kRemote  ? "'UR'"
                      : locality == ast::Locality::kLocal ? "'MAH'"
                                                          : "this token") +
         ", found " + peek().describe());
  }
  if (match(TokKind::kTickZ)) {
    ExprPtr index = parse_expr();
    return std::make_unique<ast::IndexExpr>(std::move(base), std::move(index),
                                            loc);
  }
  return base;
}

ExprPtr Parser::parse_expr() {
  const Nest nest(*this);
  const lex::Token& t = peek();
  switch (t.kind) {
    case TokKind::kNumbr: {
      advance();
      return std::make_unique<ast::NumbrLit>(t.numbr, t.loc);
    }
    case TokKind::kNumbar: {
      advance();
      return std::make_unique<ast::NumbarLit>(t.numbar, t.loc);
    }
    case TokKind::kYarn: {
      advance();
      return std::make_unique<ast::YarnLit>(t.segments, t.loc);
    }
    case TokKind::kIdentifier:
      return parse_postfix_primary();
    case TokKind::kKeyword:
      break;
    default:
      fail("expected an expression, found " + peek().describe());
  }
  switch (t.keyword) {
    case Keyword::kWin:
      advance();
      return std::make_unique<ast::TroofLit>(true, t.loc);
    case Keyword::kFail:
      advance();
      return std::make_unique<ast::TroofLit>(false, t.loc);
    case Keyword::kNoob:
      advance();
      return std::make_unique<ast::NoobLit>(t.loc);
    case Keyword::kIt:
    case Keyword::kUr:
    case Keyword::kMah:
    case Keyword::kSrs:
      return parse_postfix_primary();
    case Keyword::kMe:
      advance();
      return std::make_unique<ast::MeExpr>(t.loc);
    case Keyword::kMahFrenz:
      advance();
      return std::make_unique<ast::MahFrenzExpr>(t.loc);
    case Keyword::kWhatevr:
      advance();
      return std::make_unique<ast::WhatevrExpr>(t.loc);
    case Keyword::kWhatevar:
      advance();
      return std::make_unique<ast::WhatevarExpr>(t.loc);
    case Keyword::kSumOf:
      advance();
      return parse_binary(ast::BinOp::kSum);
    case Keyword::kDiffOf:
      advance();
      return parse_binary(ast::BinOp::kDiff);
    case Keyword::kProduktOf:
      advance();
      return parse_binary(ast::BinOp::kProdukt);
    case Keyword::kQuoshuntOf:
      advance();
      return parse_binary(ast::BinOp::kQuoshunt);
    case Keyword::kModOf:
      advance();
      return parse_binary(ast::BinOp::kMod);
    case Keyword::kBiggrOf:
      advance();
      return parse_binary(ast::BinOp::kBiggr);
    case Keyword::kSmallrOf:
      advance();
      return parse_binary(ast::BinOp::kSmallr);
    case Keyword::kBothSaem:
      advance();
      return parse_binary(ast::BinOp::kBothSaem);
    case Keyword::kDiffrint:
      advance();
      return parse_binary(ast::BinOp::kDiffrint);
    case Keyword::kBigger:
      advance();
      return parse_binary(ast::BinOp::kBigger);
    case Keyword::kSmallr:
      advance();
      return parse_binary(ast::BinOp::kSmallrCmp);
    case Keyword::kBothOf:
      advance();
      return parse_binary(ast::BinOp::kBothOf);
    case Keyword::kEitherOf:
      advance();
      return parse_binary(ast::BinOp::kEitherOf);
    case Keyword::kWonOf:
      advance();
      return parse_binary(ast::BinOp::kWonOf);
    case Keyword::kNot:
      advance();
      return parse_unary(ast::UnOp::kNot);
    case Keyword::kSquarOf:
      advance();
      return parse_unary(ast::UnOp::kSquar);
    case Keyword::kUnsquarOf:
      advance();
      return parse_unary(ast::UnOp::kUnsquar);
    case Keyword::kFlipOf:
      advance();
      return parse_unary(ast::UnOp::kFlip);
    case Keyword::kAllOf:
      advance();
      return parse_nary(ast::NaryOp::kAllOf);
    case Keyword::kAnyOf:
      advance();
      return parse_nary(ast::NaryOp::kAnyOf);
    case Keyword::kSmoosh:
      advance();
      return parse_nary(ast::NaryOp::kSmoosh);
    case Keyword::kMaek: {
      advance();
      ExprPtr v = parse_expr();
      expect_kw(Keyword::kA);
      ast::TypeKind ty = parse_type(/*allow_plural=*/false);
      return std::make_unique<ast::CastExpr>(std::move(v), ty, t.loc);
    }
    case Keyword::kIIz:
      advance();
      return parse_call();
    default:
      fail("expected an expression, found " + peek().describe());
  }
}

ast::Program parse_program(std::string_view source) {
  return Parser(lex::tokenize(source)).parse_program();
}

ast::ExprPtr parse_expression(std::string_view source) {
  return Parser(lex::tokenize(source)).parse_expression_only();
}

}  // namespace lol::parse
