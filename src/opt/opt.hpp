// The optimizing middle-end: a pass pipeline over the AST.
//
// Runs once per compile — between sema validation and backend slot setup
// — so the interpreter, the bytecode VM, the JIT and lcc's C output
// all execute the same optimized program, and every warm compile-cache
// hit amortizes the work across runs. The pipeline is semantics-
// preserving with respect to per-PE observable behavior: printed output,
// error classification, barrier/lock/symmetric-access sequences, rng
// draw counts and GIMMEH reads are identical at every level. Step
// *counts* are not preserved: dce and fuse drop statements, and
// hoisting/strength reduction add them, so programs near a step-budget
// edge can classify differently across levels — the same caveat the
// differential suite already documents for the statement-vs-instruction
// budget mismatch between backends.
//
// Passes (level 1: fold, prop, dce; level 2 adds fuse, licm, strength):
//   fold      constant folding + algebraic simplification, backed by the
//             runtime's own rt::op_* so folded values are bit-identical;
//             expressions that would throw are left for run time
//   prop      literal propagation of once-declared, never-mutated
//             private scalars (declarations are kept: `:{x}`
//             interpolation still reads the environment)
//   dce       removal of never-referenced declarations with pure, total
//             initializers
//   fuse      forward substitution of a private scalar's pure, total
//             definition into the self-update that is its first
//             subsequent write and only intervening read (`v R E1` ..
//             `v R E2(v)` becomes `v R E2(E1)`), dropping a statement,
//             a store and a name lookup per execution
//   licm      loop-invariant code motion of pure, provably-total
//             subexpressions out of `IM IN YR` bodies
//   strength  strength reduction of `PRODUKT OF counter AN <lit>`
//             induction arithmetic to a running accumulator
//
// The pipeline never replaces a function definition or a `WE HAS A`
// declaration, so the sema::Analysis taken before optimize() stays valid
// for the optimized program (lol::compile analyzes once).
//
// Programs using SRS dynamic names disable every name-sensitive pass.
#pragma once

#include <cstdint>

#include "ast/ast.hpp"

namespace lol::opt {

/// Bumped whenever pass behavior changes. The compile cache mixes this
/// into its key so persisted/warm entries never alias an optimized shape
/// produced by a different pipeline.
inline constexpr std::uint32_t kPipelineVersion = 2;

struct Options {
  int level = 2;  // 0 = off, 1 = fold/prop/dce, 2 = full
  // Read by no pass; kept only because perfbench/src/main.cpp still
  // assigns it.
  int unroll_max_trip = 16;
};

/// What the pipeline did (observability + tests).
struct Stats {
  std::uint64_t folded = 0;     // expressions replaced by literals
  std::uint64_t propagated = 0; // variable reads replaced by literals
  std::uint64_t hoisted = 0;    // loop-invariant expressions hoisted
  std::uint64_t reduced = 0;    // induction multiplies strength-reduced
  std::uint64_t fused = 0;      // single-use definitions substituted
  std::uint64_t dead = 0;       // dead declarations removed

  [[nodiscard]] std::uint64_t total() const {
    return folded + propagated + hoisted + reduced + fused + dead;
  }
};

/// Optimizes a sema-validated program in place. `program` must have
/// passed sema::analyze (the pipeline assumes structural validity); the
/// nodes that analysis borrows — function definitions and symmetric
/// declarations — survive unchanged, so it need not be re-run.
void optimize(ast::Program& program, const Options& opts,
              Stats* stats = nullptr);

/// Mixes the optimization configuration into a program hash. Replay
/// traces and cache keys derived from source text must also distinguish
/// the optimized shape that actually ran.
[[nodiscard]] std::uint64_t mix_hash(std::uint64_t h, int opt_level);

}  // namespace lol::opt
