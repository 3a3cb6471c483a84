// The bytecode VM executor. One Vm instance runs one PE of the SPMD
// launch, sharing the chunk (read-only) with every other PE.
//
// This is the only generic executor: Backend::kVm runs it alone, and
// Backend::kJit runs it with a table of specialized machine-code regions
// (codegen/jit_backend.hpp) that the dispatch loop enters at their first
// pc. Everything a region cannot prove runs here, so step accounting,
// replay scheduling and fault injection have one home.
#pragma once

#include <exception>

#include "rt/exec_context.hpp"
#include "rt/objects.hpp"
#include "vm/chunk.hpp"
#include "vm/compiler.hpp"

namespace lol::vm {

/// Specialized machine code for some pc ranges of a chunk. The VM only
/// knows where regions start and how to enter one; what a region
/// computes, and how it hands state back, is the emitter's contract
/// (codegen/jit_emitter.hpp).
struct Regions {
  /// Per chunk pc: the region code starting there, or null.
  const void* const* entry = nullptr;
  /// Runs the region at `code` for the PE owning `env`. Returns the pc to
  /// resume at (the region already materialized the stack and locals),
  /// kDeopt when an entry guard failed, or kThrew when a runtime call
  /// caught an exception and parked it in *pending.
  std::int64_t (*enter)(void* env, const void* code) = nullptr;
  void* env = nullptr;
  std::exception_ptr* pending = nullptr;

  static constexpr std::int64_t kDeopt = -1;
  static constexpr std::int64_t kThrew = -2;
};

class Vm {
 public:
  Vm(const Chunk& chunk, rt::ExecContext& ctx) : chunk_(chunk), ctx_(ctx) {}

  /// Executes the chunk from the top of main. Throws support::RuntimeError
  /// on semantic errors. With `regions`, the dispatch loop checks the
  /// region table before charging the step at each pc and runs a region
  /// that starts there; after a deopt it runs that pc itself, so a guard
  /// that always fails costs one entry attempt per visit, never a loop.
  void run(const Regions* regions = nullptr);

 private:
  /// The region runtime (codegen/jit_runtime.cpp) reads and writes frame
  /// cells and the value stack directly: guards read cells, and region
  /// exits re-create exactly the state the VM ops would have produced
  /// (same Cell fields, same stack order) before the loop resumes.
  /// Keeping the accessor a friend documents that contract.
  friend struct JitSpecAccess;

  // One method per opcode. Operand names mirror Instr::{a,b,c}. Control
  // flow returns its result instead of mutating a pc the caller owns:
  // op_jump_if_false reports whether the branch is taken, op_call returns
  // the callee entry pc, op_return the saved return pc.
  void op_const(std::int32_t a);
  void op_pop();
  void op_load_it();
  void op_store_it();
  void op_declare(std::int32_t a);
  void op_unbind(std::int32_t a);
  void op_load_var(std::int32_t a, std::int32_t b);
  void op_store_var(std::int32_t a, std::int32_t b);
  void op_copy_array(std::int32_t a, std::int32_t b, std::int32_t c);
  void op_lock(std::int32_t a, std::int32_t b, std::int32_t c);
  void op_binary(std::int32_t a);
  void op_unary(std::int32_t a);
  void op_nary(std::int32_t a, std::int32_t b);
  void op_cast(std::int32_t a, std::int32_t b);
  [[nodiscard]] bool op_jump_if_false();
  [[nodiscard]] std::size_t op_call(std::int32_t a, std::int32_t b,
                                    std::size_t ret_pc);
  [[nodiscard]] std::size_t op_return();
  void op_me();
  void op_mah_frenz();
  void op_whatevr();
  void op_whatevar();
  void op_hugz();
  void op_bff_push();
  void op_bff_pop(std::int32_t a);
  void op_visible(std::int32_t a, std::int32_t b);
  void op_gimmeh();

  /// One variable slot: scalar value, private array, or symmetric handle.
  struct Cell {
    rt::Value v;
    std::shared_ptr<rt::PrivateArray> arr;
    std::optional<rt::SymHandle> sym;
    std::optional<ast::TypeKind> stype;
    bool bound = false;

    [[nodiscard]] bool is_array() const {
      return arr != nullptr || (sym && sym->is_array);
    }
  };

  struct Frame {
    std::vector<Cell> slots;
    rt::Value it;
    std::size_t ret_pc = 0;
    std::size_t bff_depth = 0;
    std::size_t name_map = 0;
  };

  rt::Value pop();
  void push(rt::Value v);

  Cell& static_cell(std::int32_t slot, std::uint32_t flags);
  Cell& dynamic_cell(const std::string& name);
  [[nodiscard]] std::string slot_name(const Frame& f,
                                      std::int32_t slot) const;

  /// Lazily renders a variable name for error messages only — computing
  /// it eagerly on every access would dominate the dispatch loop.
  struct NameRef {
    const Vm* vm = nullptr;
    const Frame* frame = nullptr;
    std::int32_t slot = -1;
    const std::string* dyn = nullptr;

    [[nodiscard]] std::string str() const {
      if (dyn != nullptr) return *dyn;
      return vm->slot_name(*frame, slot);
    }
  };

  rt::Value load_cell(Cell& c, bool indexed, bool remote,
                      const rt::Value* index, const NameRef& name);
  void store_cell(Cell& c, bool indexed, bool remote, const rt::Value* index,
                  rt::Value v, const NameRef& name);

  int current_bff() const;

  const Chunk& chunk_;
  rt::ExecContext& ctx_;
  std::vector<rt::Value> stack_;
  std::vector<Frame> frames_;
  std::vector<int> bff_;

  static constexpr std::size_t kMaxFrames = 2000;
};

/// Convenience used by the SPMD launcher.
void run_pe(const Chunk& chunk, rt::ExecContext& ctx);

}  // namespace lol::vm
