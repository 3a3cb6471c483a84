// JIT backend tests: x86-64 availability and parity with the VM,
// single-flight deduplication of concurrent cold emits (pinned against
// the lol_jit_compiles_total counter), and compile-cache recharging of
// sealed JIT code bytes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "codegen/jit_backend.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "service/compile_cache.hpp"

namespace {

using lol::Backend;
using lol::RunConfig;
using lol::RunResult;

// A program with enough structure to exercise most VM ops — functions
// and calls, loops, conditionals — plus a typed counting loop the JIT
// turns into a specialized region (so it has code bytes to charge). The
// salt rides in a string *literal* (not a comment — comments don't
// survive into the bytecode chunk or the emitted C), so every backend
// cache key derived from the program is unique per test and cold-compile
// tests are not poisoned by other tests that compiled the same semantics
// earlier in the process.
std::string salted_source(const std::string& salt) {
  return "HAI 1.2\n"
         "I HAS A salt ITZ \"" + salt + "\"\n"
         "HOW IZ I fib YR n\n"
         "  DIFFRINT n AN SMALLR OF n AN 1, O RLY?\n"
         "  YA RLY\n"
         "    FOUND YR SUM OF I IZ fib YR DIFF OF n AN 1 MKAY AN I IZ "
         "fib YR DIFF OF n AN 2 MKAY\n"
         "  OIC\n"
         "  FOUND YR n\n"
         "IF U SAY SO\n"
         "I HAS A r ITZ I IZ fib YR 10 MKAY\n"
         "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
         "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 100\n"
         "  acc R SUM OF acc AN i\n"
         "IM OUTTA YR l\n"
         "VISIBLE SMOOSH \"fib=\" AN r AN \" acc=\" AN acc MKAY\n"
         "KTHXBYE\n";
}

RunResult run_backend(const lol::CompiledProgram& prog, Backend b,
                      int n_pes = 1) {
  RunConfig cfg;
  cfg.n_pes = n_pes;
  cfg.backend = b;
  return lol::run(prog, cfg);
}

TEST(Jit, AvailabilityIsReported) {
#if defined(__x86_64__)
  const char* env = std::getenv("LOL_JIT");
  if (env != nullptr && std::string(env) == "0") {
    EXPECT_FALSE(lol::codegen::jit_available());
  } else if (!lol::codegen::jit_available()) {
    GTEST_SKIP() << "x86-64 host but no executable mmap (hardened "
                    "kernel?): jit column skipped";
  }
#else
  EXPECT_FALSE(lol::codegen::jit_available());
#endif
}

TEST(Jit, ByteIdenticalToVmAndChargesCodeBytes) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  auto prog = lol::compile(salted_source("parity"));
  EXPECT_EQ(prog.jit_code_bytes(), 0u) << "charged before any jit run";

  RunResult vm = run_backend(prog, Backend::kVm, 2);
  RunResult jit = run_backend(prog, Backend::kJit, 2);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  ASSERT_TRUE(jit.ok) << jit.first_error();
  EXPECT_EQ(jit.pe_output, vm.pe_output);
  EXPECT_EQ(jit.pe_errout, vm.pe_errout);
  EXPECT_NE(jit.pe_output.at(0).find("fib=55"), std::string::npos);

  // The run memoized the sealed code on the program; the compile cache
  // uses this to charge JIT code against its byte budget.
  EXPECT_GT(prog.jit_code_bytes(), 0u);
}

// N concurrent cold submissions of one source must emit exactly once.
// Distinct CompiledProgram instances defeat the per-program JitSlot
// memo, so this exercises the process-wide single-flight cache itself.
TEST(Jit, ConcurrentColdJitCompilesEmitExactlyOnce) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  const std::string source = salted_source("jit-single-flight");
  constexpr int kThreads = 8;
  std::vector<lol::CompiledProgram> programs;
  programs.reserve(kThreads);
  // -O0: the salt declaration is dead code the optimizer would remove,
  // and cold-compile tests depend on per-test-unique compiled shapes.
  lol::CompileOptions copts;
  copts.opt_level = 0;
  for (int i = 0; i < kThreads; ++i) {
    programs.push_back(lol::compile(source, copts));
  }

  lol::obs::Counter& compiles = lol::obs::Registry::global().counter(
      "lol_jit_compiles_total", "Bytecode-to-x86-64 JIT compilations");
  const std::uint64_t before = compiles.value();

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<RunResult> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      results[i] = run_backend(programs[i], Backend::kJit);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].first_error();
    EXPECT_EQ(results[i].pe_output, results[0].pe_output);
  }
  EXPECT_EQ(compiles.value() - before, 1u)
      << "concurrent identical cold jobs must share one JIT emit";
}

TEST(Jit, CompileCacheRechargesJitCodeBytes) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  lol::service::CompileCache cache(8, 32u << 20);
  const std::string source = salted_source("cache-recharge");
  auto compiled = cache.get_or_compile(source);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const std::size_t charged = cache.resident_bytes();
  EXPECT_EQ(charged,
            lol::service::CompileCache::charged_bytes(source.size()));

  // Before any JIT run the recharge is a no-op...
  cache.recharge(source);
  EXPECT_EQ(cache.resident_bytes(), charged);

  // ...after one it folds the sealed code into the budget, exactly as
  // the program reports it.
  RunResult r = run_backend(*compiled.program, Backend::kJit);
  ASSERT_TRUE(r.ok) << r.first_error();
  ASSERT_GT(compiled.program->jit_code_bytes(), 0u);
  cache.recharge(source);
  EXPECT_EQ(cache.resident_bytes(),
            charged + compiled.program->jit_code_bytes());

  // Recharging twice does not double-charge.
  cache.recharge(source);
  EXPECT_EQ(cache.resident_bytes(),
            charged + compiled.program->jit_code_bytes());
}

}  // namespace
