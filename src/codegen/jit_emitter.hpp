// Lowers the specialized regions of a VM bytecode chunk to x86-64.
//
// The VM's dispatch loop is the only generic executor (vm/vm.hpp). What
// this emitter adds are type-specialized regions (jit_analysis.hpp): pc
// ranges whose ops provably work on NUMBR/NUMBAR/TROOF payloads compile
// to raw machine arithmetic with the virtual stack and hot locals held in
// registers — no Value boxing, no dispatch. The VM enters a region at its
// first pc, before charging that pc's step, through one shared stub at
// offset 0 of the code; the region returns:
//   - a resume pc, after an exit stub materialized live registers onto
//     the VM stack and wrote dirty locals back to their cells;
//   - vm::Regions::kDeopt when an entry guard failed (the VM then runs
//     that pc generically);
//   - vm::Regions::kThrew when a runtime call caught an exception, parked
//     in JitSpecEnv::pending for the VM to rethrow.
// Step accounting runs in per-basic-block batches against a fuel counter
// so budgets, abort polls, fault steps and replay schedules stay
// VM-exact (see emit_seg_check).
//
// ABI and register plan (SysV x86-64):
//   r12 — rsp snapshot from the entry stub; the shared epilogue restores
//         it, which discards the slow-path thunk's frame when it bails
//   r13 — the JitSpecEnv* (step counters, PE identity, spill bank); also
//         the first argument of every runtime call
//   r14 — step fuel: inline-chargeable steps left before the next
//         slow-path call must re-derive the budget
//   r15/rbp — register homes for the two hottest integer locals in a
//         region (assigned by the linear scan)
//   r8-r11 / xmm0-xmm3 — virtual-stack registers, relative depth 0-3
//   entry stub: std::int64_t (*)(JitSpecEnv*, const void* region_code)
// Region code contains no destructors, so the epilogue's rsp reset is
// sanitizer-clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "vm/chunk.hpp"

namespace lol::vm {
class Vm;
}
namespace lol::rt {
struct ExecContext;
}

namespace lol::codegen {

/// Upper bound on bank quads any region may need (8 virtual-stack slots
/// + tracked locals, capped in jit_analysis.cpp). The env reserves this
/// many so emitted displacements can never overrun.
inline constexpr std::size_t kJitSpecMaxBank = 40;

/// Per-PE environment the emitted code keeps in r13. Field offsets are
/// baked into emitted displacements through offsetof; the fields emitted
/// code touches come first so most displacements fit in one byte.
struct JitSpecEnv {
  rt::ExecContext* ctx = nullptr;  // step/abort/fault counters
  std::int64_t me = 0;             // PE id (kMe without a call)
  std::int64_t n_pes = 0;          // gang size (kMahFrenz)
  std::uint64_t spec_ops = 0;      // ops retired by specialized code
  std::uint64_t deopts = 0;        // region-entry guard failures
  std::uint64_t scratch = 0;       // guard target when no payload loads
  std::uint64_t bank[kJitSpecMaxBank] = {};  // spill bank
  vm::Vm* vm = nullptr;            // the PE's VM (runtime calls' target)
  std::exception_ptr pending;      // caught by a runtime call; rethrown
                                   // by the VM on Regions::kThrew
};

/// Addresses of the region runtime calls (jit_runtime.cpp), embedded as
/// movabs immediates. Each takes the JitSpecEnv* first. A negative status
/// (or, for slow, a negative fuel) means an exception is parked in
/// JitSpecEnv::pending: the region returns Regions::kThrew.
struct JitSpecHelpers {
  std::uint64_t slow = 0;       // i64(env, i64 k) -> fuel
  std::uint64_t guard = 0;      // i32(env, i32 slot, i32 kind, i64* bank)
  std::uint64_t arr_load_i = 0; // {i64 status, i64 v}(env, i32, i64)
  std::uint64_t arr_load_d = 0; // {i64 status, f64 v}(env, i32, i64)
  std::uint64_t arr_store_i = 0;// i32(env, i32 slot, i64 idx, i64 v)
  std::uint64_t arr_store_d = 0;// i32(env, i32 slot, i64 idx, f64 v)
  std::uint64_t push = 0;       // i32(env, i64 bits, i32 type)
  std::uint64_t wb_store = 0;   // i32(env, i32 slot, i64 bits, i32 type)
  std::uint64_t wb_decl = 0;    // i32(env, i32 decl, i64 bits, i32 type)
  std::uint64_t wb_unbind = 0;  // i32(env, i32 slot)
  std::uint64_t wb_it = 0;      // i32(env, i64 bits, i32 type)
};
const JitSpecHelpers& jit_spec_helpers();

struct JitEmitInfo {
  std::uint64_t regions = 0;     // specialized regions emitted
  std::uint64_t spec_pcs = 0;    // bytecode pcs covered by those regions
  /// (region lo pc, code offset of its guarded entry), ascending pc.
  std::vector<std::pair<std::size_t, std::size_t>> entries;
};

/// Emits position-independent x86-64 for the specialized regions of
/// `chunk`: the entry stub at offset 0, then every region. A chunk with
/// no provable region yields empty code. `dump`, when set, receives the
/// annotated region listing.
std::vector<std::uint8_t> emit_chunk_x86_64(const vm::Chunk& chunk,
                                            JitEmitInfo* info,
                                            std::string* dump = nullptr);

/// Deterministic binary serialization of a chunk, used as the JIT code
/// cache key: identical bytecode => identical key => one emitted program.
std::string chunk_cache_key(const vm::Chunk& chunk);

}  // namespace lol::codegen
