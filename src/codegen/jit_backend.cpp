#include "codegen/jit_backend.hpp"

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "codegen/jit_emitter.hpp"
#include "codegen/single_flight.hpp"
#include "obs/metrics.hpp"
#include "vm/vm.hpp"

namespace lol::codegen {

namespace {

/// Build outcome carried through the single-flight cache: failed builds
/// keep the diagnostic so every waiter reports the same error.
struct JitBuild {
  std::shared_ptr<const JitProgram> prog;
  std::string error;
};

/// Bounded because daemon clients choose sources: an unbounded map of
/// emitted code would be client-controlled memory growth. Eviction only
/// drops the cache's reference — in-flight runs and JitSlot memos hold
/// the shared_ptr, and the ExecMem unmaps when the last one releases.
SingleFlight<JitBuild>& jit_cache() {
  static auto* c = new SingleFlight<JitBuild>(64);
  return *c;
}

struct JitMetrics {
  obs::Counter& compiles;
  obs::Histogram& compile_ms;
  obs::Counter& spec_ops;
  obs::Counter& deopts;
  JitMetrics()
      : compiles(obs::Registry::global().counter(
            "lol_jit_compiles_total",
            "Bytecode-to-x86-64 JIT compilations (cache misses)")),
        compile_ms(obs::Registry::global().histogram(
            "lol_jit_compile_ms", "JIT compile latency (emit + map), ms",
            {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 25.0, 100.0})),
        spec_ops(obs::Registry::global().counter(
            "lol_jit_specialized_ops_total",
            "Bytecode ops retired by the type-specialized JIT tier")),
        deopts(obs::Registry::global().counter(
            "lol_jit_deopts_total",
            "Specialized-region guard failures (the VM ran the region's "
            "first op instead)")) {}
};

JitMetrics& jit_metrics() {
  static JitMetrics m;
  return m;
}

}  // namespace

bool jit_available() {
#if !defined(__x86_64__)
  return false;
#else
  static const bool ok = [] {
    const char* env = std::getenv("LOL_JIT");
    if (env != nullptr && env[0] == '0' && env[1] == '\0') return false;
    return ExecMem::supported();
  }();
  return ok;
#endif
}

namespace {

bool jit_dump_enabled() {
  const char* env = std::getenv("LOL_JIT_DUMP");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

}  // namespace

std::shared_ptr<const JitProgram> JitProgram::get_or_build(
    std::shared_ptr<const vm::Chunk> chunk, std::string* error) {
  if (!jit_available()) {
    if (error != nullptr) {
      *error = "JIT backend unavailable on this host (needs x86-64, mmap "
               "PROT_EXEC, LOL_JIT != 0)";
    }
    return nullptr;
  }
  JitBuild built = jit_cache().get_or_build(
      chunk_cache_key(*chunk),
      [&]() -> JitBuild {
        JitBuild b;
        const auto t0 = std::chrono::steady_clock::now();
        std::string dump;
        auto prog = std::shared_ptr<JitProgram>(new JitProgram());
        prog->chunk_ = chunk;
        std::vector<std::uint8_t> code = emit_chunk_x86_64(
            *chunk, &prog->info_, jit_dump_enabled() ? &dump : nullptr);
        if (!code.empty()) {
          if (!prog->mem_.map_and_seal(code.data(), code.size(), &b.error)) {
            return b;
          }
          const auto* base =
              static_cast<const std::uint8_t*>(prog->mem_.base());
          prog->entry_.assign(chunk->code.size(), nullptr);
          for (const auto& [pc, off] : prog->info_.entries) {
            prog->entry_[pc] = base + off;
          }
        }
        if (!dump.empty()) {
          std::fprintf(stderr, "%s", dump.c_str());
          std::fflush(stderr);
        }
        b.prog = std::move(prog);
        jit_metrics().compiles.inc();
        jit_metrics().compile_ms.observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
        return b;
      },
      [](const JitBuild& b) { return b.prog != nullptr; });
  if (built.prog == nullptr && error != nullptr) {
    *error = built.error.empty() ? "JIT build failed" : built.error;
  }
  return built.prog;
}

void JitProgram::run_pe(rt::ExecContext& ctx) const {
  vm::Vm vm(*chunk_, ctx);
  if (entry_.empty()) {
    vm.run();
    return;
  }
  JitSpecEnv env;
  env.ctx = &ctx;
  env.vm = &vm;
  env.me = ctx.pe->id();
  env.n_pes = ctx.pe->n_pes();
  vm::Regions regions;
  regions.entry = entry_.data();
  regions.enter = reinterpret_cast<std::int64_t (*)(void*, const void*)>(
      const_cast<void*>(mem_.base()));
  regions.env = &env;
  regions.pending = &env.pending;
  auto flush = [&] {
    if (env.spec_ops != 0) jit_metrics().spec_ops.inc(env.spec_ops);
    if (env.deopts != 0) jit_metrics().deopts.inc(env.deopts);
  };
  try {
    vm.run(&regions);
  } catch (...) {
    flush();
    throw;
  }
  flush();
}

}  // namespace lol::codegen
