// JIT backend + native compile-path tests: x86-64 availability and
// parity with the VM, single-flight deduplication of concurrent cold
// compiles on both the cc+dlopen path (pinned against the
// lol_native_cc_invocations_total counter — the regression this PR
// fixes) and the JIT emit path, private scratch-directory hygiene,
// wait-status decoding of compiler deaths, and compile-cache recharging
// of sealed JIT code bytes.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "codegen/jit_backend.hpp"
#include "codegen/native_backend.hpp"
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

// The headline regression: N concurrent cold submissions of one source
// must fork the host C compiler exactly once. Distinct CompiledProgram
// instances defeat the per-program NativeSlot memo, so this exercises
// the process-wide single-flight cache itself.
TEST(Jit, ConcurrentColdNativeCompilesInvokeCcExactlyOnce) {
  if (!lol::codegen::native_available()) {
    GTEST_SKIP() << "no host C compiler";
  }
  const std::string source = salted_source("native-single-flight");
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

  lol::obs::Counter& invocations = lol::obs::Registry::global().counter(
      "lol_native_cc_invocations_total",
      "Host C compiler invocations by the native backend");
  const std::uint64_t before = invocations.value();

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<RunResult> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();  // maximize overlap of the cold misses
      results[i] = run_backend(programs[i], Backend::kNative);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].first_error();
    EXPECT_EQ(results[i].pe_output, results[0].pe_output);
  }
  EXPECT_EQ(invocations.value() - before, 1u)
      << "concurrent identical cold jobs must share one cc invocation";
}

// Same dedup discipline on the JIT path: one emit per distinct chunk,
// no matter how many programs race to it cold.
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

TEST(Jit, NativeScratchDirIsPrivateAndOwnerOnly) {
  if (!lol::codegen::native_available()) {
    GTEST_SKIP() << "no host C compiler";
  }
  const std::string& dir = lol::codegen::native_scratch_dir();
  ASSERT_FALSE(dir.empty());
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  // mkdtemp randomizes the suffix: the predictable lolnative_<pid>_<n>
  // scheme this replaced was guessable by other local users.
  EXPECT_NE(dir.find("lolnative_"), std::string::npos);

  struct stat st{};
  ASSERT_EQ(::stat(dir.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, static_cast<mode_t>(0700))
      << "scratch dir must be owner-only";
  EXPECT_EQ(st.st_uid, ::getuid());
}

TEST(Jit, DescribeCcFailureDistinguishesSignalFromExit) {
  // Linux wait-status encoding: low 7 bits = terminating signal (0 for
  // a normal exit), bits 8..15 = exit code. Sanity-check the macros see
  // the statuses the way the test intends before pinning the strings.
  const int killed_by_9 = 9;           // SIGKILL death
  const int exited_1 = 1 << 8;         // exit(1)
  ASSERT_TRUE(WIFSIGNALED(killed_by_9));
  ASSERT_TRUE(WIFEXITED(exited_1));

  EXPECT_EQ(lol::codegen::describe_cc_failure(killed_by_9),
            "host C compiler killed by signal 9");
  EXPECT_EQ(lol::codegen::describe_cc_failure(exited_1),
            "host C compiler failed (exit 1)");
  EXPECT_EQ(lol::codegen::describe_cc_failure(-1),
            "could not spawn the host C compiler");
}

TEST(Jit, CcExitFailureIsReportedWithExitStatus) {
  if (!lol::codegen::native_available()) {
    GTEST_SKIP() << "no host C compiler";
  }
  // native_available() is memoized above with the real compiler; from
  // here $CC only affects the compile command itself. /bin/false "builds"
  // nothing and exits 1 — the diagnostic must carry the decoded status.
  const char* old_cc = std::getenv("CC");
  std::string saved = old_cc != nullptr ? old_cc : "";
  ::setenv("CC", "/bin/false", 1);
  lol::CompileOptions copts;
  copts.opt_level = 0;  // keep the salt: this build must be cold
  auto prog = lol::compile(salted_source("cc-exit-failure"), copts);
  RunResult r = run_backend(prog, Backend::kNative);
  if (old_cc != nullptr) {
    ::setenv("CC", saved.c_str(), 1);
  } else {
    ::unsetenv("CC");
  }
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_error().find("failed (exit 1)"), std::string::npos)
      << r.first_error();
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
