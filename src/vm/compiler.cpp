#include "vm/compiler.hpp"

#include <unordered_map>

#include "support/error.hpp"

namespace lol::vm {

using support::SemaError;

namespace {

/// Lexical scope for compile-time name resolution.
struct Scope {
  Scope* parent = nullptr;
  std::unordered_map<std::string, std::int32_t> names;
};

/// Per-function compilation state.
struct FrameCtx {
  std::int32_t next_slot = 0;
  bool is_function = false;
  std::vector<std::pair<std::string, std::int32_t>> name_map;
};

/// A breakable construct (loop or WTF) that GTFO targets.
struct Breakable {
  std::vector<std::size_t> break_jumps;  // kJump instrs to patch to the end
  int txt_depth_at_entry = 0;
  /// Slots declared directly inside a loop body (unbound between
  /// iterations so use-before-declare behaves like the interpreter).
  std::vector<std::int32_t> body_slots;
  bool is_loop = false;
};

class Compiler {
 public:
  Compiler(const ast::Program& prog, const sema::Analysis& analysis)
      : prog_(prog), analysis_(analysis) {}

  Chunk run() {
    chunk_.lock_count = analysis_.lock_count;
    chunk_.name_maps.emplace_back();  // main/global map

    // Pre-register functions so calls resolve to indices.
    for (const auto& s : prog_.body) {
      if (s->kind != ast::StmtKind::kFuncDef) continue;
      const auto& f = static_cast<const ast::FuncDefStmt&>(*s);
      func_index_[f.name] = static_cast<std::int32_t>(chunk_.funcs.size());
      FuncMeta meta;
      meta.name = f.name;
      meta.argc = static_cast<std::int32_t>(f.params.size());
      chunk_.funcs.push_back(meta);
      chunk_.name_maps.emplace_back();
    }

    // Main body.
    Scope global_scope;
    frame_ = FrameCtx{};
    current_scope_ = &global_scope;
    compile_body(prog_.body);
    emit(Op::kHalt);
    chunk_.main_slots = frame_.next_slot;
    chunk_.name_maps[0] = std::move(frame_.name_map);

    // Functions resolve free names against the global scope.
    global_scope_chain_ = &global_scope;

    // Function bodies.
    std::int32_t fi = 0;
    for (const auto& s : prog_.body) {
      if (s->kind != ast::StmtKind::kFuncDef) continue;
      const auto& f = static_cast<const ast::FuncDefStmt&>(*s);
      compile_function(f, fi++);
    }
    return std::move(chunk_);
  }

 private:
  // -- emission helpers -------------------------------------------------------
  //
  // [[gnu::noinline]] keeps a helper out of the frames of the recursive
  // compile_expr/compile_stmt. Under -fsanitize=address every inlined
  // temporary keeps a stack slot of its own, and a program nested
  // parse::Parser::kMaxNesting deep must still compile on an 8 MiB stack.

  [[gnu::noinline]]
  std::size_t emit(Op op, std::int32_t a = 0, std::int32_t b = 0,
                   std::int32_t c = 0) {
    chunk_.code.push_back(Instr{op, a, b, c});
    return chunk_.code.size() - 1;
  }

  std::int32_t here() const {
    return static_cast<std::int32_t>(chunk_.code.size());
  }

  void patch(std::size_t at, std::int32_t target) {
    chunk_.code[at].a = target;
  }

  [[gnu::noinline]]
  std::int32_t add_const(rt::Value v) {
    chunk_.consts.push_back(std::move(v));
    return static_cast<std::int32_t>(chunk_.consts.size() - 1);
  }

  std::int32_t add_name_const(const std::string& s) {
    return add_const(rt::Value::yarn(s));
  }

  // -- scope handling ----------------------------------------------------------

  /// Resolves `name`; returns (slot, is_global_frame) or nullopt.
  [[gnu::noinline]]
  std::optional<std::pair<std::int32_t, bool>> resolve(
      const std::string& name) {
    for (Scope* s = current_scope_; s != nullptr; s = s->parent) {
      auto it = s->names.find(name);
      if (it != s->names.end()) return {{it->second, false}};
    }
    if (frame_.is_function) {
      for (Scope* s = global_scope_chain_; s != nullptr; s = s->parent) {
        auto it = s->names.find(name);
        if (it != s->names.end()) return {{it->second, true}};
      }
    }
    return std::nullopt;
  }

  std::int32_t declare_name(const std::string& name,
                            support::SourceLoc loc) {
    if (current_scope_->names.count(name)) {
      throw SemaError("variable '" + name +
                          "' is already declared in this scope",
                      loc);
    }
    std::int32_t slot = frame_.next_slot++;
    current_scope_->names[name] = slot;
    frame_.name_map.emplace_back(name, slot);
    // Record the slot with the nearest enclosing loop so it is unbound
    // between iterations (matching the interpreter's fresh scopes).
    for (auto it = breakables_.rbegin(); it != breakables_.rend(); ++it) {
      if (it->is_loop) {
        it->body_slots.push_back(slot);
        break;
      }
    }
    return slot;
  }

  // -- statements --------------------------------------------------------------

  void compile_body(const ast::StmtList& body) {
    for (const auto& s : body) compile_stmt(*s);
  }

  void compile_stmt(const ast::Stmt& s) {
    switch (s.kind) {
      case ast::StmtKind::kVarDecl:
        compile_decl(static_cast<const ast::VarDeclStmt&>(s));
        return;
      case ast::StmtKind::kAssign:
        compile_assign(static_cast<const ast::AssignStmt&>(s));
        return;
      case ast::StmtKind::kExpr:
        compile_expr(*static_cast<const ast::ExprStmt&>(s).expr);
        emit(Op::kStoreIt);
        return;
      case ast::StmtKind::kVisible: {
        const auto& v = static_cast<const ast::VisibleStmt&>(s);
        for (const auto& a : v.args) compile_expr(*a);
        std::int32_t flags =
            (v.newline ? 1 : 0) | (v.to_stderr ? 2 : 0);
        emit(Op::kVisible, static_cast<std::int32_t>(v.args.size()), flags);
        return;
      }
      case ast::StmtKind::kGimmeh: {
        const auto& g = static_cast<const ast::GimmehStmt&>(s);
        compile_store_prefix(*g.target);
        emit(Op::kGimmeh);
        compile_store(*g.target);
        return;
      }
      case ast::StmtKind::kCastTo: {
        const auto& c = static_cast<const ast::CastToStmt&>(s);
        compile_store_prefix(*c.target);
        compile_expr(*c.target);
        emit(Op::kCast, static_cast<std::int32_t>(c.type), 1);
        compile_store(*c.target);
        return;
      }
      case ast::StmtKind::kORly:
        compile_orly(static_cast<const ast::ORlyStmt&>(s));
        return;
      case ast::StmtKind::kWtf:
        compile_wtf(static_cast<const ast::WtfStmt&>(s));
        return;
      case ast::StmtKind::kLoop:
        compile_loop(static_cast<const ast::LoopStmt&>(s));
        return;
      case ast::StmtKind::kGtfo:
        compile_gtfo(s.loc);
        return;
      case ast::StmtKind::kFoundYr: {
        const auto& f = static_cast<const ast::FoundYrStmt&>(s);
        compile_expr(*f.value);
        emit(Op::kReturn);
        return;
      }
      case ast::StmtKind::kFuncDef:
        return;  // compiled separately
      case ast::StmtKind::kCanHas:
        return;  // libraries are built in
      case ast::StmtKind::kHugz:
        emit(Op::kHugz);
        return;
      case ast::StmtKind::kLock: {
        const auto& l = static_cast<const ast::LockStmt&>(s);
        auto [operand, flags] = var_operand(*l.target, s.loc);
        emit(Op::kLock, operand, static_cast<std::int32_t>(flags),
             static_cast<std::int32_t>(l.op));
        return;
      }
      case ast::StmtKind::kTxt: {
        const auto& t = static_cast<const ast::TxtStmt&>(s);
        compile_expr(*t.target_pe);
        emit(Op::kBffPush);
        ++txt_depth_;
        compile_body(t.body);
        --txt_depth_;
        emit(Op::kBffPop, 1);
        return;
      }
    }
    throw SemaError("internal: unhandled statement in VM compiler", s.loc);
  }

  /// Best-effort payload type of `e`, for DeclMeta::hint. Conservative:
  /// only shapes whose runtime type is a function of the operand types
  /// alone. The opt pipeline's fold/prop passes turn many computed
  /// initializers into literals before we get here, which is what makes
  /// this one-level-deep walk effective at -O1/-O2.
  static std::optional<ast::TypeKind> infer_expr_hint(const ast::Expr& e) {
    using K = ast::ExprKind;
    using T = ast::TypeKind;
    switch (e.kind) {
      case K::kNumbrLit: return T::kNumbr;
      case K::kNumbarLit: return T::kNumbar;
      case K::kTroofLit: return T::kTroof;
      case K::kYarnLit: return T::kYarn;
      case K::kMe:
      case K::kMahFrenz:
      case K::kWhatevr: return T::kNumbr;
      case K::kWhatevar: return T::kNumbar;
      case K::kCast:
        return static_cast<const ast::CastExpr&>(e).type;
      case K::kUnary: {
        const auto& u = static_cast<const ast::UnaryExpr&>(e);
        if (u.op == ast::UnOp::kNot) return T::kTroof;
        if (u.op == ast::UnOp::kSquar) return infer_expr_hint(*u.operand);
        return std::nullopt;
      }
      case K::kBinary: {
        const auto& b = static_cast<const ast::BinaryExpr&>(e);
        using B = ast::BinOp;
        switch (b.op) {
          case B::kBothSaem:
          case B::kDiffrint:
          case B::kBigger:
          case B::kSmallrCmp:
          case B::kBothOf:
          case B::kEitherOf:
          case B::kWonOf:
            return T::kTroof;
          case B::kSum:
          case B::kDiff:
          case B::kProdukt:
          case B::kBiggr:
          case B::kSmallr: {
            auto l = infer_expr_hint(*b.lhs);
            auto r = infer_expr_hint(*b.rhs);
            if (l == T::kNumbr && r == T::kNumbr) return T::kNumbr;
            bool l_num = l == T::kNumbr || l == T::kNumbar;
            bool r_num = r == T::kNumbr || r == T::kNumbar;
            if (l_num && r_num) return T::kNumbar;
            return std::nullopt;
          }
          default:
            return std::nullopt;
        }
      }
      default:
        return std::nullopt;
    }
  }

  [[gnu::noinline]]
  void compile_decl(const ast::VarDeclStmt& d) {
    std::int32_t slot = declare_name(d.name, d.loc);
    DeclMeta meta;
    meta.name = d.name;
    meta.slot = slot;
    meta.static_type = d.declared_type;
    meta.srsly = d.srsly;
    meta.is_array = d.is_array;
    meta.has_init = d.init != nullptr;
    meta.has_size = d.array_size != nullptr;
    if (d.scope == ast::DeclScope::kSymmetric) {
      const sema::SymInfo* info = analysis_.sym_for_decl(&d);
      if (info == nullptr) {
        throw SemaError("internal: symmetric declaration missing from sema",
                        d.loc);
      }
      meta.symmetric = true;
      meta.sym_slot = info->slot;
      meta.lock_id = info->lock_id;
      meta.elem = d.declared_type.value_or(ast::TypeKind::kNumbr);
    } else if (d.is_array) {
      meta.elem = d.declared_type.value_or(ast::TypeKind::kNumbr);
    }
    if (!meta.symmetric && !meta.is_array) {
      if (meta.srsly && meta.static_type) {
        // SRSLY stores coerce to the declared type, initializer included.
        meta.hint = meta.static_type;
      } else if (d.init) {
        meta.hint = infer_expr_hint(*d.init);
      } else if (meta.static_type) {
        meta.hint = meta.static_type;  // zero_of(declared type)
      }
    }
    // Push size then init so the VM pops init first.
    if (d.array_size) compile_expr(*d.array_size);
    if (d.init) compile_expr(*d.init);
    std::int32_t meta_idx = static_cast<std::int32_t>(chunk_.decls.size());
    chunk_.decls.push_back(std::move(meta));
    emit(Op::kDeclare, meta_idx);
  }

  /// (operand, flags) for a VarRef/SrsRef access. SrsRef name expressions
  /// are compiled as a name constant only when literal; otherwise the
  /// dynamic name is evaluated onto the stack and flagged.
  [[gnu::noinline]]
  std::pair<std::int32_t, std::uint32_t> var_operand(const ast::Expr& e,
                                                     support::SourceLoc loc) {
    if (e.kind == ast::ExprKind::kVarRef) {
      const auto& v = static_cast<const ast::VarRef&>(e);
      std::uint32_t flags = 0;
      if (v.locality == ast::Locality::kRemote) flags |= kAccRemote;
      auto r = resolve(v.name);
      if (!r) {
        throw SemaError("variable '" + v.name + "' has not been declared",
                        v.loc);
      }
      if (r->second) flags |= kAccGlobal;
      return {r->first, flags};
    }
    if (e.kind == ast::ExprKind::kSrsRef) {
      const auto& v = static_cast<const ast::SrsRef&>(e);
      std::uint32_t flags = kAccDynamic;
      if (v.locality == ast::Locality::kRemote) flags |= kAccRemote;
      // The dynamic name is evaluated at run time: compile it onto the
      // stack; the VM pops it (after any index/value, see stack order).
      compile_expr(*v.name_expr);
      return {-1, flags};
    }
    throw SemaError("expected a variable reference", loc);
  }

  /// For stores with an index: the index must be pushed before the value.
  void compile_store_prefix(const ast::Expr& target) {
    if (target.kind == ast::ExprKind::kIndex) {
      const auto& ix = static_cast<const ast::IndexExpr&>(target);
      compile_expr(*ix.index);
    }
  }

  /// Emits the store for `target`; expects [index,] [name,] value on the
  /// stack (name for dynamic SRS targets is pushed here, after value —
  /// the VM pops name, value, index).
  void compile_store(const ast::Expr& target) {
    if (target.kind == ast::ExprKind::kItRef) {
      emit(Op::kStoreIt);
      return;
    }
    const ast::Expr* base = &target;
    std::uint32_t extra = 0;
    if (target.kind == ast::ExprKind::kIndex) {
      base = static_cast<const ast::IndexExpr&>(target).base.get();
      extra |= kAccIndexed;
    }
    auto [operand, flags] = var_operand(*base, target.loc);
    emit(Op::kStoreVar, operand, static_cast<std::int32_t>(flags | extra));
  }

  [[gnu::noinline]]
  void compile_assign(const ast::AssignStmt& a) {
    // Whole-array copy when both sides are unindexed, statically known
    // array variables. (SRS-named arrays copy element-wise through the
    // normal scalar path only when indexed; unindexed SRS copies are
    // resolved dynamically by the VM.)
    if ((a.target->kind == ast::ExprKind::kVarRef ||
         a.target->kind == ast::ExprKind::kSrsRef) &&
        (a.value->kind == ast::ExprKind::kVarRef ||
         a.value->kind == ast::ExprKind::kSrsRef)) {
      // Emit a copy-or-scalar instruction pair: the VM decides at run time
      // whether both operands are arrays (mirrors the interpreter, which
      // resolves the variables before choosing bulk copy vs scalar move).
      auto [src_operand, src_flags] = var_operand(*a.value, a.loc);
      auto [dst_operand, dst_flags] = var_operand(*a.target, a.loc);
      emit(Op::kCopyArray, dst_operand, src_operand,
           static_cast<std::int32_t>(copy_flags(dst_flags, src_flags)));
      return;
    }
    compile_store_prefix(*a.target);
    compile_expr(*a.value);
    compile_store(*a.target);
  }

  [[gnu::noinline]]
  void compile_orly(const ast::ORlyStmt& s) {
    std::vector<std::size_t> end_jumps;
    emit(Op::kLoadIt);
    std::size_t jf = emit(Op::kJumpIfFalse);
    compile_body(s.ya_rly);
    end_jumps.push_back(emit(Op::kJump));
    patch(jf, here());
    for (const auto& [cond, body] : s.mebbe) {
      compile_expr(*cond);
      emit(Op::kStoreIt);
      emit(Op::kLoadIt);
      std::size_t next = emit(Op::kJumpIfFalse);
      compile_body(body);
      end_jumps.push_back(emit(Op::kJump));
      patch(next, here());
    }
    compile_body(s.no_wai);
    for (std::size_t j : end_jumps) patch(j, here());
  }

  [[gnu::noinline]]
  void compile_wtf(const ast::WtfStmt& s) {
    breakables_.push_back(Breakable{{}, txt_depth_, {}, false});

    // Dispatch chain.
    std::vector<std::size_t> case_entry_jumps(s.cases.size());
    for (std::size_t i = 0; i < s.cases.size(); ++i) {
      emit(Op::kLoadIt);
      compile_expr(*s.cases[i].literal);
      emit(Op::kBinary, static_cast<std::int32_t>(ast::BinOp::kBothSaem));
      std::size_t next = emit(Op::kJumpIfFalse);
      case_entry_jumps[i] = emit(Op::kJump);
      patch(next, here());
    }
    std::size_t to_default = emit(Op::kJump);

    // Bodies with fallthrough.
    for (std::size_t i = 0; i < s.cases.size(); ++i) {
      patch(case_entry_jumps[i], here());
      compile_body(s.cases[i].body);
    }
    patch(to_default, here());
    if (s.has_default) compile_body(s.default_body);

    Breakable b = std::move(breakables_.back());
    breakables_.pop_back();
    for (std::size_t j : b.break_jumps) patch(j, here());
  }

  [[gnu::noinline]]
  void compile_loop(const ast::LoopStmt& s) {
    // The loop variable lives in a scope of its own.
    Scope loop_scope;
    loop_scope.parent = current_scope_;
    current_scope_ = &loop_scope;

    std::int32_t var_slot = -1;
    if (s.update != ast::LoopUpdate::kNone) {
      var_slot = declare_name(s.var, s.loc);
      DeclMeta meta;
      meta.name = s.var;
      meta.slot = var_slot;
      meta.has_init = true;
      meta.hint = ast::TypeKind::kNumbr;  // counters start at NUMBR 0
      std::int32_t meta_idx = static_cast<std::int32_t>(chunk_.decls.size());
      chunk_.decls.push_back(std::move(meta));
      emit(Op::kConst, add_const(rt::Value::numbr(0)));
      emit(Op::kDeclare, meta_idx);
    }

    breakables_.push_back(Breakable{{}, txt_depth_, {}, true});
    std::int32_t cond_pc = here();
    std::size_t exit_jump = SIZE_MAX;
    if (s.cond_kind == ast::LoopCond::kTil) {
      compile_expr(*s.cond);
      emit(Op::kUnary, static_cast<std::int32_t>(ast::UnOp::kNot));
      exit_jump = emit(Op::kJumpIfFalse);
    } else if (s.cond_kind == ast::LoopCond::kWile) {
      compile_expr(*s.cond);
      exit_jump = emit(Op::kJumpIfFalse);
    }

    Scope body_scope;
    body_scope.parent = current_scope_;
    current_scope_ = &body_scope;
    compile_body(s.body);
    current_scope_ = body_scope.parent;

    // Unbind body-declared slots so next-iteration use-before-declare
    // fails exactly like the interpreter's fresh per-iteration scope.
    for (std::int32_t slot : breakables_.back().body_slots) {
      if (slot != var_slot) emit(Op::kUnbind, slot);
    }

    // Update expression.
    if (s.update != ast::LoopUpdate::kNone) {
      switch (s.update) {
        case ast::LoopUpdate::kUppin:
          emit(Op::kLoadVar, var_slot, 0);
          emit(Op::kConst, add_const(rt::Value::numbr(1)));
          emit(Op::kBinary, static_cast<std::int32_t>(ast::BinOp::kSum));
          emit(Op::kStoreVar, var_slot, 0);
          break;
        case ast::LoopUpdate::kNerfin:
          emit(Op::kLoadVar, var_slot, 0);
          emit(Op::kConst, add_const(rt::Value::numbr(1)));
          emit(Op::kBinary, static_cast<std::int32_t>(ast::BinOp::kDiff));
          emit(Op::kStoreVar, var_slot, 0);
          break;
        case ast::LoopUpdate::kFunc: {
          auto it = func_index_.find(s.func);
          if (it == func_index_.end()) {
            throw SemaError("loop update names unknown function '" + s.func +
                                "'",
                            s.loc);
          }
          emit(Op::kLoadVar, var_slot, 0);
          emit(Op::kCall, it->second, 1);
          emit(Op::kStoreVar, var_slot, 0);
          break;
        }
        case ast::LoopUpdate::kNone:
          break;
      }
    }
    emit(Op::kJump, cond_pc);
    if (exit_jump != SIZE_MAX) patch(exit_jump, here());

    Breakable b = std::move(breakables_.back());
    breakables_.pop_back();
    for (std::size_t j : b.break_jumps) patch(j, here());
    current_scope_ = loop_scope.parent;
  }

  void compile_gtfo(support::SourceLoc loc) {
    if (!breakables_.empty()) {
      Breakable& b = breakables_.back();
      int pops = txt_depth_ - b.txt_depth_at_entry;
      if (pops > 0) emit(Op::kBffPop, pops);
      b.break_jumps.push_back(emit(Op::kJump));
      return;
    }
    if (frame_.is_function) {
      // GTFO outside loop/switch in a function: return NOOB.
      emit(Op::kConst, add_const(rt::Value::noob()));
      emit(Op::kReturn);
      return;
    }
    throw SemaError("GTFO outside loop/switch/function", loc);
  }

  void compile_function(const ast::FuncDefStmt& f, std::int32_t index) {
    FrameCtx saved_frame = std::move(frame_);
    Scope* saved_scope = current_scope_;
    int saved_txt = txt_depth_;

    frame_ = FrameCtx{};
    frame_.is_function = true;
    txt_depth_ = 0;
    Scope fn_scope;
    current_scope_ = &fn_scope;

    chunk_.funcs[static_cast<std::size_t>(index)].entry =
        static_cast<std::uint32_t>(here());
    for (const auto& p : f.params) declare_name(p, f.loc);

    compile_body(f.body);
    emit(Op::kLoadIt);
    emit(Op::kReturn);

    chunk_.funcs[static_cast<std::size_t>(index)].n_slots = frame_.next_slot;
    chunk_.name_maps[static_cast<std::size_t>(index) + 1] =
        std::move(frame_.name_map);

    frame_ = std::move(saved_frame);
    current_scope_ = saved_scope;
    txt_depth_ = saved_txt;
  }

  // -- expressions ---------------------------------------------------------------

  void compile_expr(const ast::Expr& e) {
    switch (e.kind) {
      case ast::ExprKind::kNumbrLit:
        emit(Op::kConst, add_const(rt::Value::numbr(
                             static_cast<const ast::NumbrLit&>(e).value)));
        return;
      case ast::ExprKind::kNumbarLit:
        emit(Op::kConst, add_const(rt::Value::numbar(
                             static_cast<const ast::NumbarLit&>(e).value)));
        return;
      case ast::ExprKind::kTroofLit:
        emit(Op::kConst, add_const(rt::Value::troof(
                             static_cast<const ast::TroofLit&>(e).value)));
        return;
      case ast::ExprKind::kNoobLit:
        emit(Op::kConst, add_const(rt::Value::noob()));
        return;
      case ast::ExprKind::kYarnLit: {
        const auto& y = static_cast<const ast::YarnLit&>(e);
        if (y.is_plain()) {
          emit(Op::kConst, add_const(rt::Value::yarn(y.plain_text())));
          return;
        }
        // Interpolation compiles to a SMOOSH of segments.
        std::int32_t n = 0;
        for (const auto& seg : y.segments) {
          if (seg.is_var) {
            auto r = resolve(seg.text);
            if (!r) {
              throw SemaError(":{" + seg.text +
                                  "}: variable has not been declared",
                              y.loc);
            }
            emit(Op::kLoadVar, r->first, r->second ? kAccGlobal : 0);
          } else {
            emit(Op::kConst, add_const(rt::Value::yarn(seg.text)));
          }
          ++n;
        }
        emit(Op::kNary, static_cast<std::int32_t>(ast::NaryOp::kSmoosh), n);
        return;
      }
      case ast::ExprKind::kVarRef:
      case ast::ExprKind::kSrsRef: {
        auto [operand, flags] = var_operand(e, e.loc);
        emit(Op::kLoadVar, operand, static_cast<std::int32_t>(flags));
        return;
      }
      case ast::ExprKind::kIndex: {
        const auto& ix = static_cast<const ast::IndexExpr&>(e);
        compile_expr(*ix.index);
        auto [operand, flags] = var_operand(*ix.base, e.loc);
        emit(Op::kLoadVar, operand,
             static_cast<std::int32_t>(flags | kAccIndexed));
        return;
      }
      case ast::ExprKind::kItRef:
        emit(Op::kLoadIt);
        return;
      case ast::ExprKind::kMe:
        emit(Op::kMe);
        return;
      case ast::ExprKind::kMahFrenz:
        emit(Op::kMahFrenz);
        return;
      case ast::ExprKind::kWhatevr:
        emit(Op::kWhatevr);
        return;
      case ast::ExprKind::kWhatevar:
        emit(Op::kWhatevar);
        return;
      case ast::ExprKind::kBinary: {
        const auto& b = static_cast<const ast::BinaryExpr&>(e);
        compile_expr(*b.lhs);
        compile_expr(*b.rhs);
        emit(Op::kBinary, static_cast<std::int32_t>(b.op));
        return;
      }
      case ast::ExprKind::kNary: {
        const auto& n = static_cast<const ast::NaryExpr&>(e);
        for (const auto& o : n.operands) compile_expr(*o);
        emit(Op::kNary, static_cast<std::int32_t>(n.op),
             static_cast<std::int32_t>(n.operands.size()));
        return;
      }
      case ast::ExprKind::kUnary: {
        const auto& u = static_cast<const ast::UnaryExpr&>(e);
        compile_expr(*u.operand);
        emit(Op::kUnary, static_cast<std::int32_t>(u.op));
        return;
      }
      case ast::ExprKind::kCast: {
        const auto& c = static_cast<const ast::CastExpr&>(e);
        compile_expr(*c.value);
        emit(Op::kCast, static_cast<std::int32_t>(c.type), 1);
        return;
      }
      case ast::ExprKind::kCall: {
        const auto& c = static_cast<const ast::CallExpr&>(e);
        auto it = func_index_.find(c.callee);
        if (it == func_index_.end()) {
          throw SemaError("call to unknown function '" + c.callee + "'",
                          c.loc);
        }
        for (const auto& a : c.args) compile_expr(*a);
        emit(Op::kCall, it->second,
             static_cast<std::int32_t>(c.args.size()));
        return;
      }
    }
    throw SemaError("internal: unhandled expression in VM compiler", e.loc);
  }

  const ast::Program& prog_;
  const sema::Analysis& analysis_;
  Chunk chunk_;
  FrameCtx frame_;
  Scope* current_scope_ = nullptr;
  Scope* global_scope_chain_ = nullptr;
  std::unordered_map<std::string, std::int32_t> func_index_;
  std::vector<Breakable> breakables_;
  int txt_depth_ = 0;
};

}  // namespace

Chunk compile_program(const ast::Program& program,
                      const sema::Analysis& analysis) {
  return Compiler(program, analysis).run();
}

}  // namespace lol::vm
