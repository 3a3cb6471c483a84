// Backend::kJit: the VM plus specialized machine-code regions.
//
// The bytecode VM (vm/vm.hpp) is the only generic executor. The JIT adds
// type-specialized regions (jit_analysis.hpp, jit_emitter.hpp) in W^X
// pages, which the VM's dispatch loop enters at their first pc. So step
// budgets, deadlines, abort, replay scheduling, fault injection and
// output are the VM's own for everything a region does not cover, and
// regions are held to the same contracts at their boundaries. A cold
// compile is the analysis plus the region emitter and at most one
// mmap/mprotect, microseconds instead of a host-cc fork.
//
// Availability: x86-64 + POSIX mmap, a kernel that allows the W^X
// RW->RX flip, and LOL_JIT != 0. When unavailable the engine runs the
// plain VM instead.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codegen/jit_emitter.hpp"
#include "codegen/jit_memory.hpp"
#include "vm/chunk.hpp"

namespace lol::rt {
struct ExecContext;
}

namespace lol::codegen {

/// True when emitted regions can execute here; when false, Backend::kJit
/// runs the plain VM. Memoized after first call.
bool jit_available();

/// One program's emitted regions plus the chunk the VM runs around them.
/// Immutable and shareable across concurrent runs — all mutable state
/// lives in the per-PE Vm and JitSpecEnv that run_pe creates.
class JitProgram {
 public:
  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;

  /// Emits (or fetches from the process-wide single-flight cache) the
  /// regions for `chunk`. Keyed by the chunk's serialized bytes, so N
  /// concurrent cold misses on one program emit exactly once. Every
  /// chunk gets a program, including one with no region (it maps no
  /// pages and runs as the plain VM). Returns null and fills `error`
  /// when the JIT is unavailable or the pages cannot be mapped.
  static std::shared_ptr<const JitProgram> get_or_build(
      std::shared_ptr<const vm::Chunk> chunk, std::string* error);

  /// Runs one PE on a Vm over the chunk with this program's regions
  /// attached. Exceptions (StepLimitError, RuntimeError, PeKilledError,
  /// abort) propagate exactly as from the VM.
  void run_pe(rt::ExecContext& ctx) const;

  /// Bytes of sealed executable code (compile-cache accounting); 0 for a
  /// program without regions.
  [[nodiscard]] std::size_t code_bytes() const { return mem_.size(); }

  /// What the emitter produced (specialized-region coverage).
  [[nodiscard]] const JitEmitInfo& emit_info() const { return info_; }

 private:
  JitProgram() = default;

  std::shared_ptr<const vm::Chunk> chunk_;
  ExecMem mem_;
  JitEmitInfo info_;
  std::vector<const void*> entry_;  // per pc; empty without regions
};

/// Per-CompiledProgram memo mirroring VmSlot: filled under its
/// own lock on the first Backend::kJit run so warm runs skip the cache
/// key serialization.
struct JitSlot {
  std::mutex m;
  std::shared_ptr<const JitProgram> prog;
};

}  // namespace lol::codegen
