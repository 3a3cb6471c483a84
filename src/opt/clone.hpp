// Deep-cloning of AST expressions.
//
// AST nodes own their children through unique_ptr and are deliberately
// non-copyable; the optimizer is the one consumer that needs structural
// copies (loop-invariant code motion keeps the hoisted expression's
// initializer as a copy). Clones preserve source locations so diagnostics
// from optimized programs still point at the original text.
#pragma once

#include "ast/ast.hpp"

namespace lol::opt {

[[nodiscard]] ast::ExprPtr clone_expr(const ast::Expr& e);

}  // namespace lol::opt
