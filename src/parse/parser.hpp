// Recursive-descent parser for LOLCODE-1.2 + the parallel extensions.
//
// The grammar is prefix-form and LL(1) over phrase-merged tokens; the only
// lookahead subtleties (multi-word keywords, `AN` as both clause separator
// and operand separator) are resolved by the lexer's longest-phrase match
// and by the prefix expression grammar, which always knows its arity.
#pragma once

#include <vector>

#include "ast/ast.hpp"
#include "lex/lexer.hpp"
#include "support/error.hpp"

namespace lol::parse {

class Parser {
 public:
  /// Deepest nesting of statements and expressions, counted together,
  /// that the parser accepts; one more throws support::ParseError at the
  /// offending token. Every later stage (sema, opt, interp, the VM and C
  /// compilers) recurses over the AST, so this bounds their depth too.
  static constexpr int kMaxNesting = 1000;

  explicit Parser(std::vector<lex::Token> tokens)
      : toks_(std::move(tokens)) {}

  /// Parses a whole program (`HAI ... KTHXBYE`). Throws
  /// support::ParseError on the first grammar violation.
  ast::Program parse_program();

  /// Parses a single expression (for tests and the REPL-style tools).
  ast::ExprPtr parse_expression_only();

 private:
  // -- token cursor ---------------------------------------------------------
  [[nodiscard]] const lex::Token& peek(std::size_t ahead = 0) const;
  const lex::Token& advance();
  [[nodiscard]] bool check(lex::TokKind k) const;
  [[nodiscard]] bool check_kw(lex::Keyword k) const;
  bool match(lex::TokKind k);
  bool match_kw(lex::Keyword k);
  const lex::Token& expect(lex::TokKind k, const char* what);
  const lex::Token& expect_kw(lex::Keyword k);
  void skip_newlines();
  void expect_end_of_statement();
  [[noreturn]] void fail(const std::string& msg) const;

  // -- statements -----------------------------------------------------------
  ast::StmtPtr parse_statement();
  ast::StmtList parse_body(const std::vector<lex::Keyword>& stops);
  [[nodiscard]] bool at_stop(const std::vector<lex::Keyword>& stops) const;

  ast::StmtPtr parse_decl(ast::DeclScope scope);
  ast::StmtPtr parse_visible(bool to_stderr);
  ast::StmtPtr parse_gimmeh();
  ast::StmtPtr parse_orly();
  ast::StmtPtr parse_wtf();
  ast::StmtPtr parse_loop();
  ast::StmtPtr parse_funcdef();
  ast::StmtPtr parse_canhas();
  ast::StmtPtr parse_lock(ast::LockOp op);
  ast::StmtPtr parse_txt();
  ast::StmtPtr parse_lvalue_statement();

  // -- expressions ----------------------------------------------------------
  ast::ExprPtr parse_expr();
  ast::ExprPtr parse_binary(ast::BinOp op);
  ast::ExprPtr parse_nary(ast::NaryOp op);
  ast::ExprPtr parse_unary(ast::UnOp op);
  ast::ExprPtr parse_call();
  /// Variable-shaped primary: [UR|MAH] (ident | SRS expr | IT) ['Z index].
  ast::ExprPtr parse_postfix_primary();
  ast::TypeKind parse_type(bool allow_plural);

  /// Holds one level of nesting (parse_statement, parse_expr) for its
  /// lifetime; entering level kMaxNesting + 1 fails.
  struct Nest {
    explicit Nest(Parser& parser);
    ~Nest() { --p.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    Parser& p;
  };

  std::vector<lex::Token> toks_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Convenience: lex + parse `source` in one call.
ast::Program parse_program(std::string_view source);

/// Convenience: lex + parse a single expression.
ast::ExprPtr parse_expression(std::string_view source);

}  // namespace lol::parse
