#include "opt/clone.hpp"

#include <memory>
#include <utility>

namespace lol::opt {

using namespace ast;

namespace {

std::vector<ExprPtr> clone_exprs(const std::vector<ExprPtr>& v) {
  std::vector<ExprPtr> out;
  out.reserve(v.size());
  for (const auto& e : v) out.push_back(clone_expr(*e));
  return out;
}

}  // namespace

ExprPtr clone_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumbrLit: {
      const auto& n = static_cast<const NumbrLit&>(e);
      return std::make_unique<NumbrLit>(n.value, n.loc);
    }
    case ExprKind::kNumbarLit: {
      const auto& n = static_cast<const NumbarLit&>(e);
      return std::make_unique<NumbarLit>(n.value, n.loc);
    }
    case ExprKind::kTroofLit: {
      const auto& n = static_cast<const TroofLit&>(e);
      return std::make_unique<TroofLit>(n.value, n.loc);
    }
    case ExprKind::kNoobLit:
      return std::make_unique<NoobLit>(e.loc);
    case ExprKind::kYarnLit: {
      const auto& n = static_cast<const YarnLit&>(e);
      return std::make_unique<YarnLit>(n.segments, n.loc);
    }
    case ExprKind::kVarRef: {
      const auto& n = static_cast<const VarRef&>(e);
      return std::make_unique<VarRef>(n.name, n.locality, n.loc);
    }
    case ExprKind::kSrsRef: {
      const auto& n = static_cast<const SrsRef&>(e);
      return std::make_unique<SrsRef>(clone_expr(*n.name_expr), n.locality,
                                      n.loc);
    }
    case ExprKind::kIndex: {
      const auto& n = static_cast<const IndexExpr&>(e);
      return std::make_unique<IndexExpr>(clone_expr(*n.base),
                                         clone_expr(*n.index), n.loc);
    }
    case ExprKind::kItRef:
      return std::make_unique<ItRef>(e.loc);
    case ExprKind::kMe:
      return std::make_unique<MeExpr>(e.loc);
    case ExprKind::kMahFrenz:
      return std::make_unique<MahFrenzExpr>(e.loc);
    case ExprKind::kWhatevr:
      return std::make_unique<WhatevrExpr>(e.loc);
    case ExprKind::kWhatevar:
      return std::make_unique<WhatevarExpr>(e.loc);
    case ExprKind::kBinary: {
      const auto& n = static_cast<const BinaryExpr&>(e);
      return std::make_unique<BinaryExpr>(n.op, clone_expr(*n.lhs),
                                          clone_expr(*n.rhs), n.loc);
    }
    case ExprKind::kNary: {
      const auto& n = static_cast<const NaryExpr&>(e);
      return std::make_unique<NaryExpr>(n.op, clone_exprs(n.operands), n.loc);
    }
    case ExprKind::kUnary: {
      const auto& n = static_cast<const UnaryExpr&>(e);
      return std::make_unique<UnaryExpr>(n.op, clone_expr(*n.operand), n.loc);
    }
    case ExprKind::kCast: {
      const auto& n = static_cast<const CastExpr&>(e);
      return std::make_unique<CastExpr>(clone_expr(*n.value), n.type, n.loc);
    }
    case ExprKind::kCall: {
      const auto& n = static_cast<const CallExpr&>(e);
      return std::make_unique<CallExpr>(n.callee, clone_exprs(n.args), n.loc);
    }
  }
  return nullptr;  // unreachable
}

}  // namespace lol::opt
