// Differential cross-backend conformance harness.
//
// The paper's pedagogical claim — and this repo's north star — is that
// one parallel LOLCODE program means the same thing on every execution
// substrate. This harness makes that claim testable: run one program
// through the interpreter, the VM and (when the host has a C compiler)
// the lcc native path under *identical* RunConfigs, then require
//
//   * the same outcome classification (ok / compile error / runtime
//     error / step-limited / aborted), and
//   * byte-identical per-PE stdout and stderr.
//
// Per-PE comparison sidesteps SPMD interleaving: scheduling may order
// PEs differently between runs, but what each PE prints is deterministic
// given the program, the seed and the barriers it contains.
//
// The same program is also run under every PE executor (thread-per-PE,
// the persistent pool and fiber carriers), so the full conformance
// matrix is {interp, vm, native, jit} x {thread, pool, fiber}:
// multiplexing virtual PEs on fibers — or executing emitted x86-64
// instead of dispatching bytecode — must not change what any PE
// computes or prints.
//
// Step-budget caveat: a "step" is a statement in the interpreter and the
// native code but an instruction in the VM, so budgets near the edge can
// classify differently by design. Differential cases therefore use
// budgets that are either clearly exhausted (tiny budget, infinite loop)
// or clearly generous; the classification must then agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace lol::difftest {

/// How a run ended, collapsed to the classification every backend must
/// agree on (the same partition JobStatus uses, minus service-only
/// states).
enum class Outcome {
  kOk,
  kCompileError,
  kRuntimeError,
  kStepLimit,
  kAborted,
};

[[nodiscard]] const char* to_string(Outcome o);

/// One differential case: a program plus the RunConfig knobs under test.
struct Spec {
  std::string name;
  std::string source;
  int n_pes = 1;
  std::uint64_t seed = 20170529;
  std::uint64_t max_steps = 0;          // 0 = unlimited
  std::vector<std::string> stdin_lines; // GIMMEH input
  std::uint64_t abort_after_ms = 0;     // >0: request abort from a timer
  /// Fiber column only: virtual PEs per carrier (0 = auto).
  int pes_per_thread = 0;
  /// Combining-tree barrier fan-in (0 = auto). The LOL_BARRIER_RADIX
  /// environment variable overrides this for every spec — CI uses it to
  /// run the whole suite under a non-default radix and prove outputs
  /// are radix-invariant.
  int barrier_radix = 0;
  /// Symmetric heap per PE; high-PE specs shrink it so a 512-PE case
  /// does not allocate half a gigabyte of arenas.
  std::size_t heap_bytes = 1 << 20;
  /// Optimizing middle-end level: -1 (the default) resolves to the
  /// LOL_OPT_LEVEL environment variable, else 2 — CI uses the variable
  /// to run the whole suite at -O0 and -O2 and prove the optimizer is
  /// output-invariant across the full backend x executor matrix. A spec
  /// naming an explicit level is testing that level and ignores the
  /// override. Specs with step budgets near the edge must pin a level:
  /// dce, fuse and the loop passes legitimately change step counts.
  int opt_level = -1;
};

/// What one (backend, executor) cell did with a Spec.
struct BackendRun {
  Backend backend = Backend::kInterp;
  shmem::ExecutorKind executor = shmem::ExecutorKind::kThread;
  std::string label;  // "interp/thread", "vm/fiber", ...
  Outcome outcome = Outcome::kOk;
  std::vector<std::string> pe_output;
  std::vector<std::string> pe_errout;
  std::string error;   // first error (diagnostic only, not compared)
  double wall_ms = 0.0;
};

/// True when Backend::kNative can run here (host cc + dlopen). Tests
/// GTEST_SKIP the native column when false; interp-vs-VM still runs.
bool native_available();

/// True when Backend::kJit can run here (x86-64, executable mmap).
bool jit_available();

/// The backends this host can compare: interp and VM always, native and
/// jit when available.
std::vector<Backend> backends_under_test();

/// The executor axis: thread-per-PE and the persistent pool always,
/// fibers where ucontext exists (everywhere we build, today).
std::vector<shmem::ExecutorKind> executors_under_test();

[[nodiscard]] const char* backend_label(Backend b);

/// Runs one spec on one (backend, executor) cell.
BackendRun run_one(const Spec& spec, Backend backend,
                   shmem::ExecutorKind executor = shmem::ExecutorKind::kThread);

/// Runs the spec on every available backend x executor cell and reports
/// divergence: empty string when all cells agree on classification and
/// per-PE output, else a human-readable report naming the disagreeing
/// cells.
std::string divergence(const Spec& spec);

/// Loads every *.lol file under `dir` (sorted by name) as a Spec with
/// the given PE count. Empty when the directory is missing.
std::vector<Spec> load_lol_dir(const std::string& dir, int n_pes);

}  // namespace lol::difftest
