#include "opt/opt.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ast/printer.hpp"
#include "obs/metrics.hpp"
#include "opt/clone.hpp"
#include "rt/ops.hpp"
#include "rt/value.hpp"
#include "support/error.hpp"

namespace lol::opt {

using namespace ast;

namespace {

// ---------------------------------------------------------------------------
// Literals <-> runtime values
// ---------------------------------------------------------------------------

std::optional<rt::Value> literal_of(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumbrLit:
      return rt::Value::numbr(static_cast<const NumbrLit&>(e).value);
    case ExprKind::kNumbarLit:
      return rt::Value::numbar(static_cast<const NumbarLit&>(e).value);
    case ExprKind::kTroofLit:
      return rt::Value::troof(static_cast<const TroofLit&>(e).value);
    case ExprKind::kNoobLit:
      return rt::Value::noob();
    case ExprKind::kYarnLit: {
      const auto& y = static_cast<const YarnLit&>(e);
      if (!y.is_plain()) return std::nullopt;
      return rt::Value::yarn(y.plain_text());
    }
    default:
      return std::nullopt;
  }
}

ExprPtr make_literal(const rt::Value& v, support::SourceLoc loc) {
  switch (v.type()) {
    case TypeKind::kNoob:
      return std::make_unique<NoobLit>(loc);
    case TypeKind::kTroof:
      return std::make_unique<TroofLit>(v.troof_raw(), loc);
    case TypeKind::kNumbr:
      return std::make_unique<NumbrLit>(v.numbr_raw(), loc);
    case TypeKind::kNumbar:
      return std::make_unique<NumbarLit>(v.numbar_raw(), loc);
    case TypeKind::kYarn: {
      std::vector<lex::YarnSegment> segs;
      if (!v.yarn_raw().empty()) {
        segs.push_back(lex::YarnSegment{false, v.yarn_raw()});
      }
      return std::make_unique<YarnLit>(std::move(segs), loc);
    }
  }
  return std::make_unique<NoobLit>(loc);  // unreachable
}

std::size_t count_expr_nodes(const Expr& e) {
  std::size_t n = 1;
  switch (e.kind) {
    case ExprKind::kSrsRef:
      n += count_expr_nodes(*static_cast<const SrsRef&>(e).name_expr);
      break;
    case ExprKind::kIndex: {
      const auto& i = static_cast<const IndexExpr&>(e);
      n += count_expr_nodes(*i.base) + count_expr_nodes(*i.index);
      break;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      n += count_expr_nodes(*b.lhs) + count_expr_nodes(*b.rhs);
      break;
    }
    case ExprKind::kNary:
      for (const auto& o : static_cast<const NaryExpr&>(e).operands) {
        n += count_expr_nodes(*o);
      }
      break;
    case ExprKind::kUnary:
      n += count_expr_nodes(*static_cast<const UnaryExpr&>(e).operand);
      break;
    case ExprKind::kCast:
      n += count_expr_nodes(*static_cast<const CastExpr&>(e).value);
      break;
    case ExprKind::kCall:
      for (const auto& a : static_cast<const CallExpr&>(e).args) {
        n += count_expr_nodes(*a);
      }
      break;
    default:
      break;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Census: one structural walk collecting the name facts every pass needs
// ---------------------------------------------------------------------------

struct Census {
  std::unordered_map<std::string, int> decl_count;  // decls + loop vars + params
  std::unordered_map<std::string, int> ref_count;   // reads + targets + :{x}
  std::unordered_set<std::string> assigned;  // R / GIMMEH / IS NOW A targets
  std::unordered_set<std::string> mutated;   // assigned + loop vars + params
  std::unordered_set<std::string> identifiers;  // every name in the program
  // Unique declarations by name (only names with decl_count == 1).
  std::unordered_map<std::string, const VarDeclStmt*> unique_decl;
  std::unordered_map<std::string, const LoopStmt*> unique_loop;
  bool has_srs = false;

  void note_decl(const std::string& name) {
    ++decl_count[name];
    identifiers.insert(name);
  }
  void note_ref(const std::string& name) {
    ++ref_count[name];
    identifiers.insert(name);
  }
};

/// The base variable name an lvalue place writes through, or "" when the
/// place is dynamic (SRS).
const std::string* place_base_name(const Expr& place) {
  const Expr* e = &place;
  if (e->kind == ExprKind::kIndex) {
    e = static_cast<const IndexExpr&>(*e).base.get();
  }
  if (e->kind == ExprKind::kVarRef) {
    return &static_cast<const VarRef&>(*e).name;
  }
  return nullptr;
}

void census_expr(const Expr& e, Census& c) {
  switch (e.kind) {
    case ExprKind::kYarnLit:
      for (const auto& seg : static_cast<const YarnLit&>(e).segments) {
        if (seg.is_var) c.note_ref(seg.text);
      }
      break;
    case ExprKind::kVarRef:
      c.note_ref(static_cast<const VarRef&>(e).name);
      break;
    case ExprKind::kSrsRef:
      c.has_srs = true;
      census_expr(*static_cast<const SrsRef&>(e).name_expr, c);
      break;
    case ExprKind::kIndex: {
      const auto& i = static_cast<const IndexExpr&>(e);
      census_expr(*i.base, c);
      census_expr(*i.index, c);
      break;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      census_expr(*b.lhs, c);
      census_expr(*b.rhs, c);
      break;
    }
    case ExprKind::kNary:
      for (const auto& o : static_cast<const NaryExpr&>(e).operands) {
        census_expr(*o, c);
      }
      break;
    case ExprKind::kUnary:
      census_expr(*static_cast<const UnaryExpr&>(e).operand, c);
      break;
    case ExprKind::kCast:
      census_expr(*static_cast<const CastExpr&>(e).value, c);
      break;
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(e);
      c.identifiers.insert(call.callee);
      for (const auto& a : call.args) census_expr(*a, c);
      break;
    }
    default:
      break;
  }
}

void census_body(const StmtList& body, Census& c);

void census_place(const Expr& place, Census& c) {
  census_expr(place, c);  // target names count as references
  if (const std::string* base = place_base_name(place)) {
    c.assigned.insert(*base);
    c.mutated.insert(*base);
  }
}

void census_stmt(const Stmt& s, Census& c) {
  switch (s.kind) {
    case StmtKind::kVarDecl: {
      const auto& d = static_cast<const VarDeclStmt&>(s);
      c.note_decl(d.name);
      if (d.init) census_expr(*d.init, c);
      if (d.array_size) census_expr(*d.array_size, c);
      break;
    }
    case StmtKind::kAssign: {
      const auto& a = static_cast<const AssignStmt&>(s);
      census_place(*a.target, c);
      census_expr(*a.value, c);
      break;
    }
    case StmtKind::kExpr:
      census_expr(*static_cast<const ExprStmt&>(s).expr, c);
      break;
    case StmtKind::kVisible:
      for (const auto& a : static_cast<const VisibleStmt&>(s).args) {
        census_expr(*a, c);
      }
      break;
    case StmtKind::kGimmeh:
      census_place(*static_cast<const GimmehStmt&>(s).target, c);
      break;
    case StmtKind::kCastTo:
      census_place(*static_cast<const CastToStmt&>(s).target, c);
      break;
    case StmtKind::kORly: {
      const auto& o = static_cast<const ORlyStmt&>(s);
      census_body(o.ya_rly, c);
      for (const auto& [cond, body] : o.mebbe) {
        census_expr(*cond, c);
        census_body(body, c);
      }
      census_body(o.no_wai, c);
      break;
    }
    case StmtKind::kWtf: {
      const auto& w = static_cast<const WtfStmt&>(s);
      for (const auto& cs : w.cases) {
        census_expr(*cs.literal, c);
        census_body(cs.body, c);
      }
      census_body(w.default_body, c);
      break;
    }
    case StmtKind::kLoop: {
      const auto& l = static_cast<const LoopStmt&>(s);
      c.identifiers.insert(l.label);
      if (!l.func.empty()) c.identifiers.insert(l.func);
      if (!l.var.empty()) {
        c.note_decl(l.var);
        c.mutated.insert(l.var);
        if (c.decl_count[l.var] == 1) c.unique_loop[l.var] = &l;
      }
      if (l.cond) census_expr(*l.cond, c);
      census_body(l.body, c);
      break;
    }
    case StmtKind::kFoundYr:
      census_expr(*static_cast<const FoundYrStmt&>(s).value, c);
      break;
    case StmtKind::kFuncDef: {
      const auto& f = static_cast<const FuncDefStmt&>(s);
      c.identifiers.insert(f.name);
      for (const auto& p : f.params) {
        c.note_decl(p);
        c.mutated.insert(p);
      }
      census_body(f.body, c);
      break;
    }
    case StmtKind::kLock:
      census_place(*static_cast<const LockStmt&>(s).target, c);
      break;
    case StmtKind::kTxt: {
      const auto& t = static_cast<const TxtStmt&>(s);
      census_expr(*t.target_pe, c);
      census_body(t.body, c);
      break;
    }
    case StmtKind::kGtfo:
    case StmtKind::kCanHas:
    case StmtKind::kHugz:
      break;
  }
}

void census_body(const StmtList& body, Census& c) {
  for (const auto& s : body) census_stmt(*s, c);
}

Census take_census(const Program& p) {
  Census c;
  census_body(p.body, c);
  for (const auto& [name, count] : c.decl_count) {
    if (count != 1) {
      c.unique_loop.erase(name);
    }
  }
  // Map unique VarDeclStmt nodes (loop vars and params have no decl node).
  struct DeclFinder {
    Census* c;
    void body(const StmtList& b) {
      for (const auto& s : b) stmt(*s);
    }
    void stmt(const Stmt& s) {
      switch (s.kind) {
        case StmtKind::kVarDecl: {
          const auto& d = static_cast<const VarDeclStmt&>(s);
          if (c->decl_count[d.name] == 1) c->unique_decl[d.name] = &d;
          break;
        }
        case StmtKind::kORly: {
          const auto& o = static_cast<const ORlyStmt&>(s);
          body(o.ya_rly);
          for (const auto& [cond, mb] : o.mebbe) body(mb);
          body(o.no_wai);
          break;
        }
        case StmtKind::kWtf: {
          const auto& w = static_cast<const WtfStmt&>(s);
          for (const auto& cs : w.cases) body(cs.body);
          body(w.default_body);
          break;
        }
        case StmtKind::kLoop:
          body(static_cast<const LoopStmt&>(s).body);
          break;
        case StmtKind::kFuncDef:
          body(static_cast<const FuncDefStmt&>(s).body);
          break;
        case StmtKind::kTxt:
          body(static_cast<const TxtStmt&>(s).body);
          break;
        default:
          break;
      }
    }
  };
  DeclFinder{&c}.body(p.body);
  return c;
}

// ---------------------------------------------------------------------------
// Static type inference
//
// A variable's runtime type is statically known when every value it can
// ever hold has one type: SRSLY declarations (stores cast), symmetric
// objects (the fixed-width heap casts), and never-mutated private
// scalars whose initializer type is itself inferable. Soundness, not
// completeness: nullopt just makes a pass skip an opportunity.
// ---------------------------------------------------------------------------

struct Types {
  std::unordered_map<std::string, TypeKind> vars;       // scalar reads
  std::unordered_map<std::string, TypeKind> array_elem; // base'Z i reads

  std::optional<TypeKind> of(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kNumbrLit:
        return TypeKind::kNumbr;
      case ExprKind::kNumbarLit:
        return TypeKind::kNumbar;
      case ExprKind::kTroofLit:
        return TypeKind::kTroof;
      case ExprKind::kNoobLit:
        return TypeKind::kNoob;
      case ExprKind::kYarnLit:
        return TypeKind::kYarn;
      case ExprKind::kVarRef: {
        auto it = vars.find(static_cast<const VarRef&>(e).name);
        if (it == vars.end()) return std::nullopt;
        return it->second;
      }
      case ExprKind::kIndex: {
        const auto& i = static_cast<const IndexExpr&>(e);
        if (i.base->kind != ExprKind::kVarRef) return std::nullopt;
        auto it =
            array_elem.find(static_cast<const VarRef&>(*i.base).name);
        if (it == array_elem.end()) return std::nullopt;
        return it->second;
      }
      case ExprKind::kMe:
      case ExprKind::kMahFrenz:
      case ExprKind::kWhatevr:
        return TypeKind::kNumbr;
      case ExprKind::kWhatevar:
        return TypeKind::kNumbar;
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        switch (b.op) {
          case BinOp::kSum:
          case BinOp::kDiff:
          case BinOp::kProdukt:
          case BinOp::kQuoshunt:
          case BinOp::kMod:
          case BinOp::kBiggr:
          case BinOp::kSmallr: {
            auto l = of(*b.lhs);
            auto r = of(*b.rhs);
            if (!l || !r) return std::nullopt;
            bool ln = *l == TypeKind::kNumbr || *l == TypeKind::kNumbar;
            bool rn = *r == TypeKind::kNumbr || *r == TypeKind::kNumbar;
            if (!ln || !rn) return std::nullopt;
            if (*l == TypeKind::kNumbar || *r == TypeKind::kNumbar) {
              return TypeKind::kNumbar;
            }
            return TypeKind::kNumbr;
          }
          case BinOp::kBigger:
          case BinOp::kSmallrCmp:
          case BinOp::kBothSaem:
          case BinOp::kDiffrint:
          case BinOp::kBothOf:
          case BinOp::kEitherOf:
          case BinOp::kWonOf:
            return TypeKind::kTroof;
        }
        return std::nullopt;
      }
      case ExprKind::kNary:
        return static_cast<const NaryExpr&>(e).op == NaryOp::kSmoosh
                   ? TypeKind::kYarn
                   : TypeKind::kTroof;
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        switch (u.op) {
          case UnOp::kNot:
            return TypeKind::kTroof;
          case UnOp::kSquar: {
            auto t = of(*u.operand);
            if (t == TypeKind::kNumbr || t == TypeKind::kNumbar) return t;
            return std::nullopt;
          }
          case UnOp::kUnsquar:
          case UnOp::kFlip:
            return TypeKind::kNumbar;
        }
        return std::nullopt;
      }
      case ExprKind::kCast:
        return static_cast<const CastExpr&>(e).type;
      default:
        return std::nullopt;  // IT, SRS, calls
    }
  }

  [[nodiscard]] bool numeric(const Expr& e) const {
    auto t = of(e);
    return t == TypeKind::kNumbr || t == TypeKind::kNumbar;
  }
};

Types infer_types(const Census& c) {
  Types t;
  for (const auto& [name, d] : c.unique_decl) {
    if (d->is_array) {
      // Element stores cast for SRSLY arrays and for the fixed-width
      // symmetric heap; plain private arrays hold anything.
      if (d->declared_type &&
          (d->srsly || d->scope == DeclScope::kSymmetric)) {
        t.array_elem[name] = *d->declared_type;
      }
      continue;
    }
    if (d->declared_type &&
        (d->srsly || d->scope == DeclScope::kSymmetric)) {
      t.vars[name] = *d->declared_type;
    }
  }
  // UPPIN/NERFIN counters start at NUMBR 0 and stay NUMBR unless the
  // body writes them (SRS could write anything, so require its absence).
  if (!c.has_srs) {
    for (const auto& [name, loop] : c.unique_loop) {
      if (loop->update == LoopUpdate::kFunc) continue;
      if (c.assigned.count(name) != 0) continue;
      t.vars.emplace(name, TypeKind::kNumbr);
    }
    // Never-mutated plain scalars: the declaration's value is the only
    // value. Iterate to let initializer chains resolve.
    for (int round = 0; round < 3; ++round) {
      bool grew = false;
      for (const auto& [name, d] : c.unique_decl) {
        if (t.vars.count(name) != 0 || d->is_array) continue;
        if (d->scope != DeclScope::kPrivate || d->srsly) continue;
        if (c.mutated.count(name) != 0) continue;
        std::optional<TypeKind> ty;
        if (d->init) {
          ty = t.of(*d->init);
        } else if (d->declared_type) {
          ty = d->declared_type;  // zero_of(declared_type)
        }
        if (ty) {
          t.vars[name] = *ty;
          grew = true;
        }
      }
      if (!grew) break;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Statement-structure helpers shared by the passes
// ---------------------------------------------------------------------------

/// Applies `fn` to every rvalue expression slot of one statement (not
/// recursing into child statement lists). Lvalue places only expose
/// their index subexpressions; the base of a place is never rewritten.
template <typename Fn>
void for_each_rvalue(Stmt& s, Fn&& fn) {
  auto place = [&](ExprPtr& target) {
    if (target->kind == ExprKind::kIndex) {
      fn(static_cast<IndexExpr&>(*target).index);
    }
  };
  switch (s.kind) {
    case StmtKind::kVarDecl: {
      auto& d = static_cast<VarDeclStmt&>(s);
      if (d.init) fn(d.init);
      if (d.array_size) fn(d.array_size);
      break;
    }
    case StmtKind::kAssign: {
      auto& a = static_cast<AssignStmt&>(s);
      fn(a.value);
      place(a.target);
      break;
    }
    case StmtKind::kExpr:
      fn(static_cast<ExprStmt&>(s).expr);
      break;
    case StmtKind::kVisible:
      for (auto& a : static_cast<VisibleStmt&>(s).args) fn(a);
      break;
    case StmtKind::kGimmeh:
      place(static_cast<GimmehStmt&>(s).target);
      break;
    case StmtKind::kCastTo:
      place(static_cast<CastToStmt&>(s).target);
      break;
    case StmtKind::kORly:
      for (auto& [cond, body] : static_cast<ORlyStmt&>(s).mebbe) fn(cond);
      break;
    case StmtKind::kWtf:
      for (auto& cs : static_cast<WtfStmt&>(s).cases) fn(cs.literal);
      break;
    case StmtKind::kLoop: {
      auto& l = static_cast<LoopStmt&>(s);
      if (l.cond) fn(l.cond);
      break;
    }
    case StmtKind::kFoundYr:
      fn(static_cast<FoundYrStmt&>(s).value);
      break;
    case StmtKind::kLock:
      place(static_cast<LockStmt&>(s).target);
      break;
    case StmtKind::kTxt:
      fn(static_cast<TxtStmt&>(s).target_pe);
      break;
    default:
      break;
  }
}

/// Applies `fn` to every child statement list of one statement.
template <typename Fn>
void for_each_child_list(Stmt& s, Fn&& fn) {
  switch (s.kind) {
    case StmtKind::kORly: {
      auto& o = static_cast<ORlyStmt&>(s);
      fn(o.ya_rly);
      for (auto& [cond, body] : o.mebbe) fn(body);
      fn(o.no_wai);
      break;
    }
    case StmtKind::kWtf: {
      auto& w = static_cast<WtfStmt&>(s);
      for (auto& cs : w.cases) fn(cs.body);
      fn(w.default_body);
      break;
    }
    case StmtKind::kLoop:
      fn(static_cast<LoopStmt&>(s).body);
      break;
    case StmtKind::kFuncDef:
      fn(static_cast<FuncDefStmt&>(s).body);
      break;
    case StmtKind::kTxt:
      fn(static_cast<TxtStmt&>(s).body);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Pass: constant folding + algebraic simplification
// ---------------------------------------------------------------------------

struct Fold {
  const Types& types;
  Stats& st;
  std::uint64_t changed = 0;

  void run(StmtList& body) {
    for (auto& s : body) {
      for_each_rvalue(*s, [&](ExprPtr& e) { fold(e); });
      for_each_child_list(*s, [&](StmtList& b) { run(b); });
    }
  }

  void fold(ExprPtr& slot) {
    // Children first so cast chains and nested arithmetic collapse
    // bottom-up in one sweep.
    switch (slot->kind) {
      case ExprKind::kSrsRef:
        fold(static_cast<SrsRef&>(*slot).name_expr);
        return;  // dynamic name: nothing else to do
      case ExprKind::kIndex: {
        auto& i = static_cast<IndexExpr&>(*slot);
        fold(i.index);
        return;
      }
      case ExprKind::kBinary: {
        auto& b = static_cast<BinaryExpr&>(*slot);
        fold(b.lhs);
        fold(b.rhs);
        fold_binary(slot);
        return;
      }
      case ExprKind::kNary: {
        auto& n = static_cast<NaryExpr&>(*slot);
        for (auto& o : n.operands) fold(o);
        fold_nary(slot);
        return;
      }
      case ExprKind::kUnary: {
        auto& u = static_cast<UnaryExpr&>(*slot);
        fold(u.operand);
        if (auto v = literal_of(*u.operand)) {
          try {
            replace(slot, rt::op_unary(u.op, *v));
          } catch (const support::LolError&) {
            // Would throw at run time; keep the error there.
          }
        }
        return;
      }
      case ExprKind::kCast: {
        auto& c = static_cast<CastExpr&>(*slot);
        fold(c.value);
        if (auto v = literal_of(*c.value)) {
          try {
            replace(slot, v->cast_to(c.type, /*explicit_cast=*/true));
          } catch (const support::LolError&) {
          }
        }
        return;
      }
      case ExprKind::kCall:
        for (auto& a : static_cast<CallExpr&>(*slot).args) fold(a);
        return;
      default:
        return;
    }
  }

  void replace(ExprPtr& slot, const rt::Value& v) {
    slot = make_literal(v, slot->loc);
    ++st.folded;
    ++changed;
  }

  /// Keeps `keep` and drops the rest of the node.
  void keep_operand(ExprPtr& slot, ExprPtr& keep) {
    ExprPtr kept = std::move(keep);
    slot = std::move(kept);
    ++st.folded;
    ++changed;
  }

  void fold_binary(ExprPtr& slot) {
    auto& b = static_cast<BinaryExpr&>(*slot);
    auto lv = literal_of(*b.lhs);
    auto rv = literal_of(*b.rhs);
    if (lv && rv) {
      try {
        replace(slot, rt::op_binary(b.op, *lv, *rv));
      } catch (const support::LolError&) {
      }
      return;
    }
    // Algebraic identities. Type-gated: `SUM OF e AN 0` is only `e` when
    // e is statically NUMBR (a YARN "3" would still numify), and NUMBAR
    // identities avoid +0.0 (which flips the sign of -0.0 and changes
    // printed output). Float identities are bitwise-exact: x*1.0, x-0.0
    // and x/1.0 return x for every double including -0.0 and NaN.
    auto is_int = [](const std::optional<rt::Value>& v, std::int64_t k) {
      return v && v->is_numbr() && v->numbr_raw() == k;
    };
    auto is_one = [&](const std::optional<rt::Value>& v) {
      return is_int(v, 1) || (v && v->is_numbar() && v->numbar_raw() == 1.0);
    };
    auto is_pos_zero = [&](const std::optional<rt::Value>& v) {
      return is_int(v, 0) ||
             (v && v->is_numbar() && v->numbar_raw() == 0.0 &&
              !std::signbit(v->numbar_raw()));
    };
    auto type_of = [&](const Expr& e) { return types.of(e); };
    switch (b.op) {
      case BinOp::kSum:
        if (is_int(rv, 0) && type_of(*b.lhs) == TypeKind::kNumbr) {
          keep_operand(slot, b.lhs);
        } else if (is_int(lv, 0) && type_of(*b.rhs) == TypeKind::kNumbr) {
          keep_operand(slot, b.rhs);
        }
        return;
      case BinOp::kDiff:
        if (is_int(rv, 0) && type_of(*b.lhs) == TypeKind::kNumbr) {
          keep_operand(slot, b.lhs);
        } else if (is_pos_zero(rv) &&
                   type_of(*b.lhs) == TypeKind::kNumbar) {
          keep_operand(slot, b.lhs);
        }
        return;
      case BinOp::kProdukt: {
        auto lt = type_of(*b.lhs);
        auto rt_ = type_of(*b.rhs);
        if (is_int(rv, 1) && lt == TypeKind::kNumbr) {
          keep_operand(slot, b.lhs);
        } else if (is_int(lv, 1) && rt_ == TypeKind::kNumbr) {
          keep_operand(slot, b.rhs);
        } else if (is_one(rv) && lt == TypeKind::kNumbar) {
          keep_operand(slot, b.lhs);
        } else if (is_one(lv) && rt_ == TypeKind::kNumbar) {
          keep_operand(slot, b.rhs);
        } else if (b.lhs->kind == ExprKind::kVarRef &&
                   b.rhs->kind == ExprKind::kVarRef &&
                   (lt == TypeKind::kNumbr || lt == TypeKind::kNumbar)) {
          // PRODUKT OF x AN x on a provably numeric local scalar reads
          // x once: rt::op_unary's SQUAR squares through the same
          // to_num coercion, so the value is bit-identical and the
          // (cannot-throw) type-error message difference never
          // materializes. Local-only: two remote reads collapse to one
          // only under the race-free barrier discipline, which folding
          // must not assume.
          const auto& l = static_cast<const VarRef&>(*b.lhs);
          const auto& r = static_cast<const VarRef&>(*b.rhs);
          if (l.name == r.name && l.locality != Locality::kRemote &&
              r.locality != Locality::kRemote) {
            ExprPtr operand = std::move(b.lhs);
            slot = std::make_unique<UnaryExpr>(UnOp::kSquar,
                                               std::move(operand), slot->loc);
            ++st.folded;
            ++changed;
          }
        }
        return;
      }
      case BinOp::kQuoshunt:
        if (is_int(rv, 1) && type_of(*b.lhs) == TypeKind::kNumbr) {
          keep_operand(slot, b.lhs);
        } else if (is_one(rv) && type_of(*b.lhs) == TypeKind::kNumbar) {
          keep_operand(slot, b.lhs);
        }
        return;
      case BinOp::kBothOf:
        if (rv && rv->is_troof() && rv->troof_raw() &&
            type_of(*b.lhs) == TypeKind::kTroof) {
          keep_operand(slot, b.lhs);
        } else if (lv && lv->is_troof() && lv->troof_raw() &&
                   type_of(*b.rhs) == TypeKind::kTroof) {
          keep_operand(slot, b.rhs);
        }
        return;
      case BinOp::kEitherOf:
        if (rv && rv->is_troof() && !rv->troof_raw() &&
            type_of(*b.lhs) == TypeKind::kTroof) {
          keep_operand(slot, b.lhs);
        } else if (lv && lv->is_troof() && !lv->troof_raw() &&
                   type_of(*b.rhs) == TypeKind::kTroof) {
          keep_operand(slot, b.rhs);
        }
        return;
      default:
        return;
    }
  }

  void fold_nary(ExprPtr& slot) {
    auto& n = static_cast<NaryExpr&>(*slot);
    bool all_lit = true;
    std::vector<rt::Value> vals;
    vals.reserve(n.operands.size());
    for (const auto& o : n.operands) {
      auto v = literal_of(*o);
      if (!v) {
        all_lit = false;
        break;
      }
      vals.push_back(std::move(*v));
    }
    if (all_lit) {
      try {
        replace(slot, rt::op_nary(n.op, vals));
      } catch (const support::LolError&) {
      }
      return;
    }
    if (n.op == NaryOp::kSmoosh) {
      // Merge adjacent plain literals through the runtime's own YARN
      // cast so formatting (NUMBAR truncation etc.) stays identical.
      for (std::size_t i = 0; i + 1 < n.operands.size();) {
        auto a = literal_of(*n.operands[i]);
        auto b = literal_of(*n.operands[i + 1]);
        std::optional<std::string> merged;
        if (a && b) {
          try {
            merged = a->to_yarn() + b->to_yarn();
          } catch (const support::LolError&) {
            // NOOB operand: SMOOSH would throw at run time; keep it.
          }
        }
        if (merged) {
          n.operands[i] =
              make_literal(rt::Value::yarn(std::move(*merged)),
                           n.operands[i]->loc);
          n.operands.erase(n.operands.begin() +
                           static_cast<std::ptrdiff_t>(i) + 1);
          ++st.folded;
          ++changed;
        } else {
          ++i;
        }
      }
      return;
    }
    // ALL OF / ANY OF evaluate every operand (no short-circuit), so
    // non-literal operands must stay; literal operands that cannot
    // decide the result can go. Keep at least one operand.
    bool all_of = n.op == NaryOp::kAllOf;
    auto droppable = [&](const Expr& e) {
      auto v = literal_of(e);
      return v && v->to_troof() == all_of;
    };
    for (std::size_t i = 0;
         n.operands.size() > 1 && i < n.operands.size();) {
      if (droppable(*n.operands[i])) {
        n.operands.erase(n.operands.begin() +
                         static_cast<std::ptrdiff_t>(i));
        ++st.folded;
        ++changed;
      } else {
        ++i;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Pass: literal propagation
// ---------------------------------------------------------------------------

struct Prop {
  const Census& census;
  Stats& st;
  std::uint64_t changed = 0;
  std::vector<std::unordered_map<std::string, rt::Value>> scopes;

  void run(StmtList& body) {
    if (census.has_srs) return;  // SRS may alias any name dynamically
    scopes.emplace_back();
    walk(body);
    scopes.pop_back();
  }

  void walk(StmtList& body) {
    for (auto& s : body) {
      // Rewrite this statement's expressions against the current scope
      // chain, then (for declarations) extend it.
      for_each_rvalue(*s, [&](ExprPtr& e) { subst(e); });
      switch (s->kind) {
        case StmtKind::kVarDecl:
          note_decl(static_cast<const VarDeclStmt&>(*s));
          break;
        case StmtKind::kFuncDef: {
          // Functions may run before any given global declaration has
          // executed, so outer mappings do not apply inside.
          auto saved = std::move(scopes);
          scopes.clear();
          scopes.emplace_back();
          walk(static_cast<FuncDefStmt&>(*s).body);
          scopes = std::move(saved);
          break;
        }
        default:
          for_each_child_list(*s, [&](StmtList& b) {
            scopes.emplace_back();
            walk(b);
            scopes.pop_back();
          });
          break;
      }
    }
  }

  void note_decl(const VarDeclStmt& d) {
    if (d.scope != DeclScope::kPrivate || d.is_array) return;
    auto it = census.decl_count.find(d.name);
    if (it == census.decl_count.end() || it->second != 1) return;
    if (census.mutated.count(d.name) != 0) return;
    std::optional<rt::Value> v;
    if (d.init) {
      v = literal_of(*d.init);
      if (v && d.srsly && d.declared_type) {
        try {
          v = v->cast_to(*d.declared_type, /*explicit_cast=*/false);
        } catch (const support::LolError&) {
          return;  // the declaration itself errors at run time
        }
      }
    } else if (d.declared_type) {
      v = rt::Value::zero_of(*d.declared_type);
    }
    if (v) scopes.back().emplace(d.name, std::move(*v));
  }

  void subst(ExprPtr& slot) {
    switch (slot->kind) {
      case ExprKind::kVarRef: {
        auto& r = static_cast<const VarRef&>(*slot);
        // UR reads resolve on another PE whose declaration may not have
        // executed yet; leave them so unbound errors stay put.
        if (r.locality == Locality::kRemote) return;
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
          auto hit = it->find(r.name);
          if (hit != it->end()) {
            slot = make_literal(hit->second, slot->loc);
            ++st.propagated;
            ++changed;
            return;
          }
        }
        return;
      }
      case ExprKind::kIndex:
        subst(static_cast<IndexExpr&>(*slot).index);
        return;
      case ExprKind::kBinary: {
        auto& b = static_cast<BinaryExpr&>(*slot);
        subst(b.lhs);
        subst(b.rhs);
        return;
      }
      case ExprKind::kNary:
        for (auto& o : static_cast<NaryExpr&>(*slot).operands) subst(o);
        return;
      case ExprKind::kUnary:
        subst(static_cast<UnaryExpr&>(*slot).operand);
        return;
      case ExprKind::kCast:
        subst(static_cast<CastExpr&>(*slot).value);
        return;
      case ExprKind::kCall:
        for (auto& a : static_cast<CallExpr&>(*slot).args) subst(a);
        return;
      default:
        return;
    }
  }
};

// ---------------------------------------------------------------------------
// Pass: forward substitution of single-use scalar definitions
//
// `v R E1`, then (possibly after independent private assignments) the
// self-update `v R E2(v)` with E2 reading v exactly once, fuses into
// `v R E2(E1)`: one statement dispatch, one store and one name lookup
// fewer per execution. Interaction kernels are full of the shape
// (`dx R DIFF OF .. / dx R SQUAR OF dx`), and name lookups are the top
// entry in interpreter profiles of the paper's SVI workloads.
//
// Soundness needs three things.
//  * Dropping the store must be invisible: v has a unique private scalar
//    declaration that provably executed (otherwise an unbound-store
//    error would move from the def's location to the use's), nothing
//    between def and use reads or writes v, and the use writes v back,
//    so everything after it sees the same value.
//  * Moving E1's evaluation to the use site must be invisible: E1 is
//    pure and total — literals, ME / MAH FRENZ, typed in-scope scalars,
//    literal-index reads of literal-sized typed arrays (a UR read is a
//    one-sided get at a heap offset fixed at compile time, as total as a
//    local read once region entry has range-checked the target), and
//    operators total on the inferred types. A thrown error would change
//    location; an rng draw would reorder the stream.
//  * The crossed material must commute with E1: intervening statements
//    are assignments to private scalars outside E1's read set whose
//    values touch no array, call or remote state, and E2's operands
//    around the v read are equally tame — so the per-PE sequence of
//    symmetric accesses (part of the pipeline's contract) is intact.
//    Crossed statements may still throw: the def's store was private, so
//    dying before it is indistinguishable from dying after it.
//
// SRSLY-typed targets additionally require E1's inferred type to equal
// the declared type exactly: the dropped store would have coerced
// through Value::cast_to, and fusing must not skip an int-to-float
// widening the program could observe downstream.
// ---------------------------------------------------------------------------

struct Fuse {
  Census& census;
  const Types& types;
  Stats& st;
  std::uint64_t changed = 0;

  // Names whose unique declaration has executed in the current scope
  // chain (same discipline as LoopOpt: a fused program must not be able
  // to hit an unbound read the original program lacked — or lose an
  // unbound store the original had).
  std::vector<std::unordered_set<std::string>> inscope;
  bool in_region = false;

  void run(StmtList& body) {
    if (census.has_srs) return;
    walk(body);
  }

  void walk(StmtList& body) {
    // A fusion can enable one earlier in the list (the nbody kernel's
    // `dx` def becomes adjacent to its use only after the `dy` def fuses
    // away), so sweep until a pass over the list changes nothing. Child
    // lists reach their own fixpoint on the first sweep.
    for (bool first = true, again = true; again; first = false) {
      again = false;
      inscope.emplace_back();
      for (std::size_t i = 0; i < body.size(); ++i) {
        Stmt& s = *body[i];
        switch (s.kind) {
          case StmtKind::kVarDecl: {
            const auto& d = static_cast<const VarDeclStmt&>(s);
            auto it = census.decl_count.find(d.name);
            if (it != census.decl_count.end() && it->second == 1) {
              inscope.back().insert(d.name);
            }
            continue;
          }
          case StmtKind::kLoop: {
            if (!first) continue;
            auto& l = static_cast<LoopStmt&>(s);
            inscope.emplace_back();
            if (!l.var.empty()) inscope.back().insert(l.var);
            walk(l.body);
            inscope.pop_back();
            continue;
          }
          case StmtKind::kFuncDef: {
            if (!first) continue;
            auto saved = std::move(inscope);
            inscope.clear();
            inscope.emplace_back();
            bool region = std::exchange(in_region, false);
            walk(static_cast<FuncDefStmt&>(s).body);
            in_region = region;
            inscope = std::move(saved);
            continue;
          }
          case StmtKind::kTxt: {
            if (!first) continue;
            inscope.emplace_back();
            bool region = std::exchange(in_region, true);
            walk(static_cast<TxtStmt&>(s).body);
            in_region = region;
            inscope.pop_back();
            continue;
          }
          case StmtKind::kAssign:
            if (try_fuse(body, i)) {
              again = true;
              // The def at `i` was erased; re-examine the slot, which
              // now holds the first statement the scan crossed (unsigned
              // wrap at i == 0 is restored by the increment).
              --i;
            }
            continue;
          default:
            break;
        }
        if (first) {
          for_each_child_list(s, [&](StmtList& b) {
            inscope.emplace_back();
            walk(b);
            inscope.pop_back();
          });
        }
      }
      inscope.pop_back();
    }
  }

  [[nodiscard]] bool declared(const std::string& name) const {
    for (const auto& scope : inscope) {
      if (scope.count(name) != 0) return true;
    }
    return false;
  }

  [[nodiscard]] const VarDeclStmt* private_scalar(
      const std::string& name) const {
    auto it = census.unique_decl.find(name);
    if (it == census.unique_decl.end()) return nullptr;
    const VarDeclStmt* d = it->second;
    if (d->scope != DeclScope::kPrivate || d->sharin || d->is_array) {
      return nullptr;
    }
    return d;
  }

  /// Pure and total, with the type the evaluation yields: the predicate
  /// that lets E1's evaluation move to the use site. Mirrors LoopOpt's
  /// invariant-totality rules (no written-set: the scan separately
  /// guarantees nothing crossed writes E1's operands), plus literal
  /// in-bounds reads of literal-sized statically typed arrays.
  std::optional<TypeKind> total(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kNumbrLit:
        return TypeKind::kNumbr;
      case ExprKind::kNumbarLit:
        return TypeKind::kNumbar;
      case ExprKind::kTroofLit:
        return TypeKind::kTroof;
      case ExprKind::kNoobLit:
        return TypeKind::kNoob;
      case ExprKind::kYarnLit:
        if (!static_cast<const YarnLit&>(e).is_plain()) {
          return std::nullopt;  // interpolation reads the environment
        }
        return TypeKind::kYarn;
      case ExprKind::kMe:
      case ExprKind::kMahFrenz:
        return TypeKind::kNumbr;
      case ExprKind::kVarRef: {
        const auto& r = static_cast<const VarRef&>(e);
        if (!declared(r.name)) return std::nullopt;
        auto it = types.vars.find(r.name);
        if (it == types.vars.end()) return std::nullopt;
        if (r.locality == Locality::kRemote) {
          auto du = census.unique_decl.find(r.name);
          if (!in_region || du == census.unique_decl.end() ||
              du->second->scope != DeclScope::kSymmetric) {
            return std::nullopt;
          }
        }
        return it->second;
      }
      case ExprKind::kIndex: {
        const auto& ix = static_cast<const IndexExpr&>(e);
        if (ix.base->kind != ExprKind::kVarRef) return std::nullopt;
        const auto& b = static_cast<const VarRef&>(*ix.base);
        if (!declared(b.name)) return std::nullopt;
        auto te = types.array_elem.find(b.name);
        if (te == types.array_elem.end()) return std::nullopt;
        auto du = census.unique_decl.find(b.name);
        if (du == census.unique_decl.end()) return std::nullopt;
        const VarDeclStmt& d = *du->second;
        if (b.locality == Locality::kRemote &&
            (!in_region || d.scope != DeclScope::kSymmetric)) {
          return std::nullopt;
        }
        if (!d.is_array || !d.array_size ||
            d.array_size->kind != ExprKind::kNumbrLit ||
            ix.index->kind != ExprKind::kNumbrLit) {
          return std::nullopt;
        }
        std::int64_t size =
            static_cast<const NumbrLit&>(*d.array_size).value;
        std::int64_t idx = static_cast<const NumbrLit&>(*ix.index).value;
        if (idx < 0 || idx >= size) return std::nullopt;
        return te->second;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        auto l = total(*b.lhs);
        auto r = total(*b.rhs);
        if (!l || !r) return std::nullopt;
        bool ln = *l == TypeKind::kNumbr || *l == TypeKind::kNumbar;
        bool rn = *r == TypeKind::kNumbr || *r == TypeKind::kNumbar;
        switch (b.op) {
          case BinOp::kSum:
          case BinOp::kDiff:
          case BinOp::kProdukt:
          case BinOp::kBiggr:
          case BinOp::kSmallr:
            if (!ln || !rn) return std::nullopt;
            return *l == TypeKind::kNumbar || *r == TypeKind::kNumbar
                       ? TypeKind::kNumbar
                       : TypeKind::kNumbr;
          case BinOp::kBigger:
          case BinOp::kSmallrCmp:
            if (!ln || !rn) return std::nullopt;
            return TypeKind::kTroof;
          case BinOp::kBothSaem:
          case BinOp::kDiffrint:
          case BinOp::kBothOf:
          case BinOp::kEitherOf:
          case BinOp::kWonOf:
            return TypeKind::kTroof;  // saem/to_troof are total
          case BinOp::kQuoshunt:
          case BinOp::kMod:
            return std::nullopt;  // may divide by zero at run time
        }
        return std::nullopt;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        auto t = total(*u.operand);
        if (!t) return std::nullopt;
        if (u.op == UnOp::kNot) return TypeKind::kTroof;
        if (u.op == UnOp::kSquar &&
            (*t == TypeKind::kNumbr || *t == TypeKind::kNumbar)) {
          return t;
        }
        return std::nullopt;  // UNSQUAR/FLIP throw on some inputs
      }
      default:
        return std::nullopt;  // IT, rng, casts, calls
    }
  }

  static void collect_reads(const Expr& e,
                            std::unordered_set<std::string>& out) {
    switch (e.kind) {
      case ExprKind::kVarRef:
        out.insert(static_cast<const VarRef&>(e).name);
        return;
      case ExprKind::kIndex: {
        const auto& ix = static_cast<const IndexExpr&>(e);
        collect_reads(*ix.base, out);
        collect_reads(*ix.index, out);
        return;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        collect_reads(*b.lhs, out);
        collect_reads(*b.rhs, out);
        return;
      }
      case ExprKind::kNary:
        for (const auto& o : static_cast<const NaryExpr&>(e).operands) {
          collect_reads(*o, out);
        }
        return;
      case ExprKind::kUnary:
        collect_reads(*static_cast<const UnaryExpr&>(e).operand, out);
        return;
      case ExprKind::kCast:
        collect_reads(*static_cast<const CastExpr&>(e).value, out);
        return;
      default:
        return;  // literals, ME, MAH FRENZ (E1 is total: nothing else)
    }
  }

  /// Walks an expression counting plain reads of `v` (recording the one
  /// slot a fusion would replace) while checking that every *other* node
  /// is material E1 may cross: no arrays, calls, remote refs, shared
  /// scalars or interpolation — reads of private scalars, IT, ME, rng
  /// and literals only.
  struct UseScan {
    const Fuse& p;
    const std::string& v;
    ExprPtr* slot = nullptr;
    int n = 0;
    bool ok = true;

    void walk(ExprPtr& e) {
      switch (e->kind) {
        case ExprKind::kVarRef: {
          const auto& r = static_cast<const VarRef&>(*e);
          if (r.name == v) {
            if (r.locality == Locality::kRemote) ok = false;
            slot = &e;
            ++n;
            return;
          }
          if (r.locality == Locality::kRemote ||
              p.private_scalar(r.name) == nullptr) {
            ok = false;
          }
          return;
        }
        case ExprKind::kNumbrLit:
        case ExprKind::kNumbarLit:
        case ExprKind::kTroofLit:
        case ExprKind::kNoobLit:
        case ExprKind::kItRef:
        case ExprKind::kMe:
        case ExprKind::kMahFrenz:
        case ExprKind::kWhatevr:
        case ExprKind::kWhatevar:
          return;
        case ExprKind::kYarnLit:
          if (!static_cast<const YarnLit&>(*e).is_plain()) ok = false;
          return;
        case ExprKind::kBinary: {
          auto& b = static_cast<BinaryExpr&>(*e);
          walk(b.lhs);
          walk(b.rhs);
          return;
        }
        case ExprKind::kNary:
          for (auto& o : static_cast<NaryExpr&>(*e).operands) walk(o);
          return;
        case ExprKind::kUnary:
          walk(static_cast<UnaryExpr&>(*e).operand);
          return;
        case ExprKind::kCast:
          walk(static_cast<CastExpr&>(*e).value);
          return;
        default:
          ok = false;  // kIndex, kCall, kSrsRef
          return;
      }
    }
  };

  bool try_fuse(StmtList& body, std::size_t i) {
    auto& def = static_cast<AssignStmt&>(*body[i]);
    if (def.target->kind != ExprKind::kVarRef) return false;
    const auto& tv = static_cast<const VarRef&>(*def.target);
    if (tv.locality == Locality::kRemote) return false;
    const std::string& v = tv.name;
    const VarDeclStmt* d = private_scalar(v);
    if (d == nullptr || !declared(v)) return false;
    std::optional<TypeKind> ty = total(*def.value);
    if (!ty) return false;
    if (d->srsly && (!d->declared_type || *ty != *d->declared_type)) {
      return false;
    }

    std::unordered_set<std::string> reads;
    collect_reads(*def.value, reads);

    for (std::size_t j = i + 1; j < body.size(); ++j) {
      if (body[j]->kind != StmtKind::kAssign) return false;
      auto& use = static_cast<AssignStmt&>(*body[j]);
      if (use.target->kind != ExprKind::kVarRef) return false;
      const auto& w = static_cast<const VarRef&>(*use.target);
      if (w.locality == Locality::kRemote) return false;
      UseScan scan{*this, v};
      scan.walk(use.value);
      if (!scan.ok) return false;
      if (w.name == v) {
        // The first write of v after the def: it must be the single-read
        // self-update, or there is nothing to fuse.
        if (scan.n != 1 || scan.slot == nullptr) return false;
        *scan.slot = std::move(def.value);
        body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
        ++st.fused;
        ++changed;
        return true;
      }
      if (scan.n != 0) return false;  // an intervening read of v
      if (private_scalar(w.name) == nullptr) {
        return false;  // a symmetric store is an access E1 must not cross
      }
      if (reads.count(w.name) != 0) {
        return false;  // clobbers one of E1's operands
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Pass: loop-invariant code motion + strength reduction
//
// One walker handles both: they share the per-loop "what does the body
// write" analysis and both insert declarations before the loop.
// ---------------------------------------------------------------------------

struct LoopOpt {
  Census& census;
  const Types& types;
  Stats& st;
  std::uint64_t changed = 0;
  int fresh_n = 0;

  // Names whose unique declaration has executed in the current scope
  // chain (so reading them at the hoist point cannot be an unbound-
  // variable error the original program lacked).
  std::vector<std::unordered_set<std::string>> inscope;

  std::string fresh(const char* tag) {
    for (;;) {
      std::string name = std::string(tag) + std::to_string(fresh_n++);
      if (census.identifiers.insert(name).second) return name;
    }
  }

  void run(StmtList& body) {
    if (census.has_srs) return;
    inscope.emplace_back();
    walk(body);
    inscope.pop_back();
  }

  void walk(StmtList& body) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      Stmt& s = *body[i];
      switch (s.kind) {
        case StmtKind::kVarDecl: {
          const auto& d = static_cast<const VarDeclStmt&>(s);
          auto it = census.decl_count.find(d.name);
          if (it != census.decl_count.end() && it->second == 1) {
            inscope.back().insert(d.name);
          }
          break;
        }
        case StmtKind::kLoop: {
          auto& l = static_cast<LoopStmt&>(s);
          std::size_t inserted = process(l, body, i);
          i += inserted;  // the loop moved right by `inserted` slots
          inscope.emplace_back();
          if (!l.var.empty()) inscope.back().insert(l.var);
          walk(l.body);
          inscope.pop_back();
          continue;
        }
        case StmtKind::kFuncDef: {
          auto saved = std::move(inscope);
          inscope.clear();
          inscope.emplace_back();
          walk(static_cast<FuncDefStmt&>(s).body);
          inscope = std::move(saved);
          continue;
        }
        default:
          break;
      }
      for_each_child_list(s, [&](StmtList& b) {
        inscope.emplace_back();
        walk(b);
        inscope.pop_back();
      });
    }
  }

  [[nodiscard]] bool known(const std::string& name) const {
    if (types.vars.count(name) == 0) return false;
    for (const auto& scope : inscope) {
      if (scope.count(name) != 0) return true;
    }
    return false;
  }

  /// What one loop body can write, plus reasons to give up entirely.
  struct BodyFacts {
    std::unordered_set<std::string> written;  // incl. nested loop vars
    std::unordered_set<std::string> declared;
    bool has_call = false;  // functions may write globals: bail
  };

  void collect(StmtList& body, BodyFacts& f) const {
    for (auto& sp : body) collect(*sp, f);
  }

  void collect(Stmt& s, BodyFacts& f) const {
    auto place = [&](const Expr& target) {
      if (const std::string* base = place_base_name(target)) {
        f.written.insert(*base);
      }
    };
    switch (s.kind) {
      case StmtKind::kVarDecl:
        f.declared.insert(static_cast<const VarDeclStmt&>(s).name);
        break;
      case StmtKind::kAssign:
        place(*static_cast<const AssignStmt&>(s).target);
        break;
      case StmtKind::kGimmeh:
        place(*static_cast<const GimmehStmt&>(s).target);
        break;
      case StmtKind::kCastTo:
        place(*static_cast<const CastToStmt&>(s).target);
        break;
      case StmtKind::kLock:
        place(*static_cast<const LockStmt&>(s).target);
        break;
      case StmtKind::kLoop: {
        const auto& l = static_cast<const LoopStmt&>(s);
        if (!l.var.empty()) f.declared.insert(l.var);
        if (l.update == LoopUpdate::kFunc) f.has_call = true;
        break;
      }
      default:
        break;
    }
    // Calls anywhere (statement or expression position) clobber.
    struct CallScan {
      bool* flag;
      void expr(const Expr& e) {
        if (e.kind == ExprKind::kCall) *flag = true;
        switch (e.kind) {
          case ExprKind::kSrsRef:
            expr(*static_cast<const SrsRef&>(e).name_expr);
            break;
          case ExprKind::kIndex: {
            const auto& i = static_cast<const IndexExpr&>(e);
            expr(*i.base);
            expr(*i.index);
            break;
          }
          case ExprKind::kBinary: {
            const auto& b = static_cast<const BinaryExpr&>(e);
            expr(*b.lhs);
            expr(*b.rhs);
            break;
          }
          case ExprKind::kNary:
            for (const auto& o :
                 static_cast<const NaryExpr&>(e).operands) {
              expr(*o);
            }
            break;
          case ExprKind::kUnary:
            expr(*static_cast<const UnaryExpr&>(e).operand);
            break;
          case ExprKind::kCast:
            expr(*static_cast<const CastExpr&>(e).value);
            break;
          case ExprKind::kCall:
            for (const auto& a : static_cast<const CallExpr&>(e).args) {
              expr(*a);
            }
            break;
          default:
            break;
        }
      }
    } scan{&f.has_call};
    for_each_rvalue(s, [&](ExprPtr& e) { scan.expr(*e); });
    for_each_child_list(s, [&](StmtList& b) { collect(b, f); });
  }

  /// Returns how many statements were inserted before the loop.
  std::size_t process(LoopStmt& loop, StmtList& list, std::size_t idx) {
    BodyFacts f;
    collect(loop.body, f);
    if (loop.update == LoopUpdate::kFunc) f.has_call = true;
    if (f.has_call) return 0;

    std::size_t inserted = 0;
    inserted += licm(loop, f, list, idx);
    inserted += strength(loop, f, list, idx + inserted);
    return inserted;
  }

  // -- LICM ----------------------------------------------------------------

  /// Pure, total, loop-invariant: every leaf is a literal, ME, MAH
  /// FRENZ, or an in-scope statically typed variable the body never
  /// writes; every operator is total on the inferred operand types.
  /// Returns the expression's type when all of that holds.
  std::optional<TypeKind> invariant_total(const Expr& e,
                                          const BodyFacts& f) const {
    switch (e.kind) {
      case ExprKind::kNumbrLit:
        return TypeKind::kNumbr;
      case ExprKind::kNumbarLit:
        return TypeKind::kNumbar;
      case ExprKind::kTroofLit:
        return TypeKind::kTroof;
      case ExprKind::kNoobLit:
        return TypeKind::kNoob;
      case ExprKind::kYarnLit:
        if (!static_cast<const YarnLit&>(e).is_plain()) {
          return std::nullopt;  // interpolation reads the environment
        }
        return TypeKind::kYarn;
      case ExprKind::kMe:
      case ExprKind::kMahFrenz:
        return TypeKind::kNumbr;
      case ExprKind::kVarRef: {
        const auto& r = static_cast<const VarRef&>(e);
        if (r.locality == Locality::kRemote) return std::nullopt;
        if (f.written.count(r.name) != 0 ||
            f.declared.count(r.name) != 0) {
          return std::nullopt;
        }
        if (!known(r.name)) return std::nullopt;
        return types.vars.at(r.name);
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        auto l = invariant_total(*b.lhs, f);
        auto r = invariant_total(*b.rhs, f);
        if (!l || !r) return std::nullopt;
        bool ln = *l == TypeKind::kNumbr || *l == TypeKind::kNumbar;
        bool rn = *r == TypeKind::kNumbr || *r == TypeKind::kNumbar;
        switch (b.op) {
          case BinOp::kSum:
          case BinOp::kDiff:
          case BinOp::kProdukt:
          case BinOp::kBiggr:
          case BinOp::kSmallr:
            if (!ln || !rn) return std::nullopt;
            return *l == TypeKind::kNumbar || *r == TypeKind::kNumbar
                       ? TypeKind::kNumbar
                       : TypeKind::kNumbr;
          case BinOp::kBigger:
          case BinOp::kSmallrCmp:
            if (!ln || !rn) return std::nullopt;
            return TypeKind::kTroof;
          case BinOp::kBothSaem:
          case BinOp::kDiffrint:
          case BinOp::kBothOf:
          case BinOp::kEitherOf:
          case BinOp::kWonOf:
            return TypeKind::kTroof;  // saem/to_troof are total
          case BinOp::kQuoshunt:
          case BinOp::kMod:
            return std::nullopt;  // may divide by zero at run time
        }
        return std::nullopt;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        auto t = invariant_total(*u.operand, f);
        if (!t) return std::nullopt;
        if (u.op == UnOp::kNot) return TypeKind::kTroof;
        if (u.op == UnOp::kSquar &&
            (*t == TypeKind::kNumbr || *t == TypeKind::kNumbar)) {
          return t;
        }
        return std::nullopt;  // UNSQUAR/FLIP throw on some inputs
      }
      default:
        return std::nullopt;
    }
  }

  std::size_t licm(LoopStmt& loop, const BodyFacts& f, StmtList& list,
                   std::size_t idx) {
    // Collect maximal invariant subexpressions worth a variable.
    std::vector<std::string> order;
    std::unordered_set<std::string> seen;
    auto consider = [&](const Expr& e) {
      if (count_expr_nodes(e) < 3) return false;
      if (!invariant_total(e, f)) return false;
      std::string key = dump(e);
      if (seen.insert(key).second) order.push_back(std::move(key));
      return true;
    };
    scan_exprs(loop.body, [&](const Expr& e) { return consider(e); });
    if (order.empty()) return 0;
    if (order.size() > 8) order.resize(8);

    std::size_t inserted = 0;
    for (const std::string& key : order) {
      std::string name = fresh("licm_t");
      const Expr* sample = nullptr;
      replace_exprs(loop.body, [&](ExprPtr& slot) {
        if (!invariant_total(*slot, f) ||
            count_expr_nodes(*slot) < 3 || dump(*slot) != key) {
          return false;
        }
        if (sample == nullptr) {
          // First match donates the hoisted initializer.
          auto decl = std::make_unique<VarDeclStmt>(loop.loc);
          decl->name = name;
          decl->init = clone_expr(*slot);
          sample = decl->init.get();
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(idx) +
                          static_cast<std::ptrdiff_t>(inserted),
                      std::move(decl));
          ++inserted;
        }
        slot = std::make_unique<VarRef>(name, Locality::kDefault,
                                        slot->loc);
        return true;
      });
      if (sample != nullptr) {
        ++st.hoisted;
        ++changed;
      }
    }
    return inserted;
  }

  // -- strength reduction --------------------------------------------------

  std::size_t strength(LoopStmt& loop, const BodyFacts& f, StmtList& list,
                       std::size_t idx) {
    if (loop.update != LoopUpdate::kUppin || loop.var.empty()) return 0;
    const std::string& c = loop.var;
    if (f.written.count(c) != 0 || f.declared.count(c) != 0) return 0;
    auto it = census.decl_count.find(c);
    if (it == census.decl_count.end() || it->second != 1) return 0;

    // counter * k (either operand order), local reads only.
    auto match = [&](const Expr& e) -> std::optional<std::int64_t> {
      if (e.kind != ExprKind::kBinary) return std::nullopt;
      const auto& b = static_cast<const BinaryExpr&>(e);
      if (b.op != BinOp::kProdukt) return std::nullopt;
      auto pick = [&](const Expr& vr,
                      const Expr& lit) -> std::optional<std::int64_t> {
        if (vr.kind != ExprKind::kVarRef ||
            lit.kind != ExprKind::kNumbrLit) {
          return std::nullopt;
        }
        const auto& r = static_cast<const VarRef&>(vr);
        if (r.name != c || r.locality == Locality::kRemote) {
          return std::nullopt;
        }
        return static_cast<const NumbrLit&>(lit).value;
      };
      auto k = pick(*b.lhs, *b.rhs);
      if (!k) k = pick(*b.rhs, *b.lhs);
      return k;
    };

    std::vector<std::int64_t> ks;
    scan_exprs(loop.body, [&](const Expr& e) {
      auto k = match(e);
      if (k && std::find(ks.begin(), ks.end(), *k) == ks.end()) {
        ks.push_back(*k);
      }
      return false;  // keep descending: matches can nest in bigger exprs
    });
    if (ks.empty()) return 0;
    if (ks.size() > 4) ks.resize(4);

    std::size_t inserted = 0;
    for (std::int64_t k : ks) {
      std::string acc = fresh("sr_acc");
      replace_exprs(loop.body, [&](ExprPtr& slot) {
        if (match(*slot) != k) return false;
        slot = std::make_unique<VarRef>(acc, Locality::kDefault,
                                        slot->loc);
        return true;
      });
      // acc starts at 0*k and gains k after every iteration, mirroring
      // UPPIN: at each condition/body evaluation acc == counter * k.
      auto decl = std::make_unique<VarDeclStmt>(loop.loc);
      decl->name = acc;
      decl->init = std::make_unique<NumbrLit>(0, loop.loc);
      list.insert(
          list.begin() + static_cast<std::ptrdiff_t>(idx) +
              static_cast<std::ptrdiff_t>(inserted),
          std::move(decl));
      ++inserted;
      loop.body.push_back(std::make_unique<AssignStmt>(
          std::make_unique<VarRef>(acc, Locality::kDefault, loop.loc),
          std::make_unique<BinaryExpr>(
              BinOp::kSum,
              std::make_unique<VarRef>(acc, Locality::kDefault, loop.loc),
              std::make_unique<NumbrLit>(k, loop.loc), loop.loc),
          loop.loc));
      ++st.reduced;
      ++changed;
    }
    return inserted;
  }

  // -- expression scanning over a body (rvalues only, no nested funcs) -----

  /// Calls `fn` on expressions top-down; when fn returns true the
  /// walker does not descend into that expression's children.
  template <typename Fn>
  void scan_exprs(StmtList& body, Fn&& fn) {
    for (auto& sp : body) {
      for_each_rvalue(*sp, [&](ExprPtr& e) { scan_expr(*e, fn); });
      for_each_child_list(*sp, [&](StmtList& b) { scan_exprs(b, fn); });
    }
  }

  template <typename Fn>
  void scan_expr(const Expr& e, Fn&& fn) {
    if (fn(e)) return;
    switch (e.kind) {
      case ExprKind::kIndex: {
        const auto& i = static_cast<const IndexExpr&>(e);
        scan_expr(*i.index, fn);
        break;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        scan_expr(*b.lhs, fn);
        scan_expr(*b.rhs, fn);
        break;
      }
      case ExprKind::kNary:
        for (const auto& o : static_cast<const NaryExpr&>(e).operands) {
          scan_expr(*o, fn);
        }
        break;
      case ExprKind::kUnary:
        scan_expr(*static_cast<const UnaryExpr&>(e).operand, fn);
        break;
      case ExprKind::kCast:
        scan_expr(*static_cast<const CastExpr&>(e).value, fn);
        break;
      case ExprKind::kCall:
        for (const auto& a : static_cast<const CallExpr&>(e).args) {
          scan_expr(*a, fn);
        }
        break;
      default:
        break;
    }
  }

  /// Calls `fn` on expression slots top-down; when fn returns true (it
  /// replaced the slot) the walker does not descend into the result.
  template <typename Fn>
  void replace_exprs(StmtList& body, Fn&& fn) {
    for (auto& sp : body) {
      for_each_rvalue(*sp, [&](ExprPtr& e) { replace_expr(e, fn); });
      for_each_child_list(*sp, [&](StmtList& b) { replace_exprs(b, fn); });
    }
  }

  template <typename Fn>
  void replace_expr(ExprPtr& slot, Fn&& fn) {
    if (fn(slot)) return;
    switch (slot->kind) {
      case ExprKind::kIndex:
        replace_expr(static_cast<IndexExpr&>(*slot).index, fn);
        break;
      case ExprKind::kBinary: {
        auto& b = static_cast<BinaryExpr&>(*slot);
        replace_expr(b.lhs, fn);
        replace_expr(b.rhs, fn);
        break;
      }
      case ExprKind::kNary:
        for (auto& o : static_cast<NaryExpr&>(*slot).operands) {
          replace_expr(o, fn);
        }
        break;
      case ExprKind::kUnary:
        replace_expr(static_cast<UnaryExpr&>(*slot).operand, fn);
        break;
      case ExprKind::kCast:
        replace_expr(static_cast<CastExpr&>(*slot).value, fn);
        break;
      case ExprKind::kCall:
        for (auto& a : static_cast<CallExpr&>(*slot).args) {
          replace_expr(a, fn);
        }
        break;
      default:
        break;
    }
  }
};

// ---------------------------------------------------------------------------
// Pass: dead code elimination — unreferenced declarations
// ---------------------------------------------------------------------------

struct Dce {
  const Census& census;
  Stats& st;
  std::uint64_t changed = 0;

  void run(StmtList& body) {
    if (census.has_srs) return;
    walk(body);
  }

  void walk(StmtList& body) {
    for (std::size_t i = 0; i < body.size();) {
      for_each_child_list(*body[i], [&](StmtList& b) { walk(b); });
      if (removable(*body[i])) {
        body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
        ++st.dead;
        ++changed;
      } else {
        ++i;
      }
    }
  }

  bool removable(const Stmt& s) const {
    if (s.kind != StmtKind::kVarDecl) return false;
    const auto& d = static_cast<const VarDeclStmt&>(s);
    if (d.scope != DeclScope::kPrivate) return false;
    auto dc = census.decl_count.find(d.name);
    if (dc == census.decl_count.end() || dc->second != 1) return false;
    if (census.ref_count.count(d.name) != 0) return false;
    // Initializer/size must be pure and total (a throwing initializer
    // is an observable runtime error).
    auto pure = [](const Expr& e) {
      return literal_of(e).has_value() || e.kind == ExprKind::kMe ||
             e.kind == ExprKind::kMahFrenz;
    };
    if (d.init && !pure(*d.init)) return false;
    if (d.array_size && !pure(*d.array_size)) return false;
    if (d.init && d.srsly && d.declared_type) {
      auto v = literal_of(*d.init);
      if (!v) return false;  // ME/MAH FRENZ cast is total for NUMBR only
      try {
        (void)v->cast_to(*d.declared_type, /*explicit_cast=*/false);
      } catch (const support::LolError&) {
        return false;
      }
    }
    return true;
  }
};

#if LOL_OBS_RUNTIME_METRICS
struct OptMetrics {
  obs::CounterFamily& passes;
  obs::Counter& folded;
  obs::Histogram& ms;
  OptMetrics()
      : passes(obs::Registry::global().counter_family(
            "lol_opt_passes_run_total", "Optimizer pass executions",
            "pass")),
        folded(obs::Registry::global().counter(
            "lol_opt_nodes_folded_total",
            "AST nodes replaced by the optimizer (all passes)")),
        ms(obs::Registry::global().histogram(
            "lol_opt_ms", "Wall time of one optimize() pipeline run",
            {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0})) {}
  static OptMetrics& get() {
    static OptMetrics m;
    return m;
  }
};
#endif

}  // namespace

void optimize(Program& program, const Options& opts, Stats* stats) {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  if (opts.level <= 0) return;
#if LOL_OBS_RUNTIME_METRICS
  auto t0 = std::chrono::steady_clock::now();
#endif
  std::uint64_t before_total = st.total();
  // Iterate to a (bounded) fixpoint: propagation exposes folds, folds
  // expose more propagation and dead declarations.
  for (int round = 0; round < 4; ++round) {
    std::uint64_t changed = 0;
    Census census = take_census(program);
    Types types = infer_types(census);

    Fold fold{types, st};
    fold.run(program.body);
    changed += fold.changed;

    Prop prop{census, st};
    prop.run(program.body);
    changed += prop.changed;

    // DCE runs on the census taken above — i.e. before any pass that
    // adds or deletes code this round — so its counts are exact.
    Dce dce{census, st};
    dce.run(program.body);
    changed += dce.changed;

    if (opts.level >= 2) {
      Fuse fuse{census, types, st};
      fuse.run(program.body);
      changed += fuse.changed;

      LoopOpt loopopt{census, types, st};
      loopopt.run(program.body);
      changed += loopopt.changed;
    }
    if (changed == 0) break;
  }
#if LOL_OBS_RUNTIME_METRICS
  {
    OptMetrics& m = OptMetrics::get();
    auto record = [&](const char* pass, std::uint64_t n) {
      if (n != 0) m.passes.with(pass).inc(n);
    };
    record("fold", st.folded);
    record("prop", st.propagated);
    record("licm", st.hoisted);
    record("strength", st.reduced);
    record("fuse", st.fused);
    record("dce", st.dead);
    m.folded.inc(st.total() - before_total);
    m.ms.observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
#endif
}

std::uint64_t mix_hash(std::uint64_t h, int opt_level) {
  if (opt_level <= 0) return h;  // -O0 runs the raw program unchanged
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(opt_level));
  mix(kPipelineVersion);
  return h;
}

}  // namespace lol::opt
