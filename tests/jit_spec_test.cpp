// JIT region tests: golden type-lattice plans (guard placement,
// spill-at-materialization exits), the VM/region hand-off contract
// (zero-region programs, deopt without re-entry, exceptions parked per PE
// and rethrown by the VM), deopt on a mid-loop NUMBR -> YARN flip,
// step-budget exactness at region boundaries, and record -> replay
// schedule-trace identity through the specialized symmetric-array path.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "codegen/jit_analysis.hpp"
#include "codegen/jit_backend.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "replay/trace.hpp"
#include "shmem/executor.hpp"
#include "vm/compiler.hpp"

#ifndef LOL_EXAMPLES_DIR
#define LOL_EXAMPLES_DIR "examples/lol"
#endif

namespace {

using lol::Backend;
using lol::RunConfig;
using lol::RunResult;

std::string plan_for(const std::string& source) {
  // -O0: the golden plans pin the lattice itself, not the optimizer
  // (at -O2 these toy bodies fold away to bare VISIBLEs).
  lol::CompileOptions copts;
  copts.opt_level = 0;
  auto prog = lol::compile(source, copts);
  lol::vm::Chunk chunk =
      lol::vm::compile_program(prog.program, prog.analysis);
  lol::codegen::SpecPlan plan = lol::codegen::analyze_chunk(chunk);
  return lol::codegen::describe_plan(chunk, plan);
}

RunResult run_backend(const lol::CompiledProgram& prog, Backend b,
                      int n_pes, std::uint64_t max_steps = 0) {
  RunConfig cfg;
  cfg.n_pes = n_pes;
  cfg.backend = b;
  cfg.max_steps = max_steps;
  return lol::run(prog, cfg);
}

// ---- golden type-lattice plans ----------------------------------------

TEST(JitSpec, LatticePlansDeclaresAndArithmeticAsOneRegion) {
  std::string d = plan_for(
      "HAI 1.2\n"
      "I HAS A a ITZ A NUMBR AN ITZ 3\n"
      "I HAS A b ITZ A NUMBR AN ITZ 4\n"
      "I HAS A c ITZ A NUMBR AN ITZ SUM OF PRODUKT OF a AN a AN "
      "PRODUKT OF b AN b\n"
      "VISIBLE c\n"
      "KTHXBYE\n");
  // In-region declares are guarded as still-unbound, lower to declare
  // acts, and the unprovable VISIBLE ends the region with the printed
  // value spilled at the materialization point.
  EXPECT_NE(d.find("unbound"), std::string::npos) << d;
  EXPECT_NE(d.find("=> declare"), std::string::npos) << d;
  EXPECT_NE(d.find("materialize 1"), std::string::npos) << d;
  EXPECT_NE(d.find("writeback"), std::string::npos) << d;
}

TEST(JitSpec, LatticeGuardsPreexistingLocalByDeclaredHint) {
  std::string d = plan_for(
      "HAI 1.2\n"
      "I HAS A x ITZ A NUMBR AN ITZ 7\n"
      "VISIBLE \"GO\"\n"
      "x R SUM OF x AN 1\n"
      "VISIBLE x\n"
      "KTHXBYE\n");
  // The second region reads x before writing it: the entry guard must
  // prove the cell still holds a NUMBR (payload parked in the bank).
  EXPECT_NE(d.find("scalar-numbr"), std::string::npos) << d;
}

TEST(JitSpec, LatticePromotesMixedNumbrNumbarBinaries) {
  std::string d = plan_for(
      "HAI 1.2\n"
      "I HAS A j ITZ A NUMBR AN ITZ 3\n"
      "I HAS A x ITZ A NUMBAR AN ITZ PRODUKT OF 0.5 AN j\n"
      "VISIBLE x\n"
      "KTHXBYE\n");
  // NUMBR-op-NUMBAR takes rt::arith's float path, so the int operand
  // converts in place and the op proceeds as a double op — without this
  // every mixed expression would end its region mid-statement.
  EXPECT_NE(d.find("bin PRODUKT OF numbar (promote rhs)"),
            std::string::npos)
      << d;
  // Parity with the VM on the same mix.
  lol::RunConfig vm_cfg, jit_cfg;
  vm_cfg.backend = lol::Backend::kVm;
  jit_cfg.backend = lol::Backend::kJit;
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A acc ITZ A NUMBAR AN ITZ 0.0\n"
      "IM IN YR loop UPPIN YR j TIL BOTH SAEM j AN 9\n"
      "  acc R SUM OF acc AN PRODUKT OF 0.25 AN j\n"
      "  BOTH SAEM j AN SMALLR OF 4.5 AN j\n"  // mixed compare, mixed min
      "IM OUTTA YR loop\n"
      "VISIBLE acc\n"
      "KTHXBYE\n");
  auto vm = lol::run(prog, vm_cfg);
  auto jit = lol::run(prog, jit_cfg);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  ASSERT_TRUE(jit.ok) << jit.first_error();
  EXPECT_EQ(vm.pe_output, jit.pe_output);
}

TEST(JitSpec, LatticeSpecializesSymmetricArraysBehindGuards) {
  std::string d = plan_for(
      "HAI 1.2\n"
      "WE HAS A v ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
      "v'Z 0 R 5\n"
      "VISIBLE v'Z 0\n"
      "KTHXBYE\n");
  // Symmetric lanes are raw typed slots: indexed local access lowers to
  // arr acts behind a sym-array guard (the helper preserves the
  // schedule-yield token order and the sim-time charge).
  EXPECT_NE(d.find("sym-array-numbr"), std::string::npos) << d;
  EXPECT_NE(d.find("=> arr-store"), std::string::npos) << d;
  EXPECT_NE(d.find("=> arr-load"), std::string::npos) << d;
}

TEST(JitSpec, EmitterCoversRegionsAndCountsSpecializedOps) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_cover_salt ITZ \"emit-info\"\n"
      "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 100\n"
      "  acc R SUM OF acc AN i\n"
      "IM OUTTA YR loop\n"
      "VISIBLE acc\n"
      "KTHXBYE\n");
  auto chunk = std::make_shared<lol::vm::Chunk>(
      lol::vm::compile_program(prog.program, prog.analysis));
  std::string err;
  auto jit = lol::codegen::JitProgram::get_or_build(chunk, &err);
  ASSERT_NE(jit, nullptr) << err;
  EXPECT_GT(jit->emit_info().regions, 0u);
  EXPECT_GT(jit->emit_info().spec_pcs, 0u);

  auto& spec_ops = lol::obs::Registry::global().counter(
      "lol_jit_specialized_ops_total",
      "Bytecode ops retired by the type-specialized JIT tier");
  std::uint64_t before = spec_ops.value();
  RunResult vm = run_backend(prog, Backend::kVm, 1);
  RunResult jr = run_backend(prog, Backend::kJit, 1);
  ASSERT_TRUE(jr.ok) << jr.first_error();
  EXPECT_EQ(vm.pe_output, jr.pe_output);
  EXPECT_GT(spec_ops.value(), before)
      << "specialized tier reported coverage but retired no ops";
}

// ---- the VM/region hand-off --------------------------------------------

TEST(JitSpec, ZeroRegionProgramStillGetsAJitProgram) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  std::ifstream in(std::string(LOL_EXAMPLES_DIR) + "/hello_team.lol");
  ASSERT_TRUE(in) << "missing examples/lol/hello_team.lol";
  auto prog = lol::compile(std::string(std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()));
  auto chunk = std::make_shared<lol::vm::Chunk>(
      lol::vm::compile_program(prog.program, prog.analysis));
  auto& compiles = lol::obs::Registry::global().counter(
      "lol_jit_compiles_total",
      "Bytecode-to-x86-64 JIT compilations (cache misses)");
  const std::uint64_t before = compiles.value();
  std::string err;
  auto jit = lol::codegen::JitProgram::get_or_build(chunk, &err);
  ASSERT_NE(jit, nullptr) << err;
  // A cold build counts once even when nothing specializes; such a
  // program maps no pages and runs as the plain VM.
  EXPECT_EQ(compiles.value() - before, 1u);
  EXPECT_EQ(jit->emit_info().regions, 0u);
  EXPECT_EQ(jit->code_bytes(), 0u);
  EXPECT_EQ(lol::codegen::JitProgram::get_or_build(chunk, &err), jit);
  EXPECT_EQ(compiles.value() - before, 1u);

  RunResult vm = run_backend(prog, Backend::kVm, 3);
  RunResult jr = run_backend(prog, Backend::kJit, 3);
  ASSERT_TRUE(jr.ok) << jr.first_error();
  EXPECT_EQ(vm.pe_output, jr.pe_output);
}

TEST(JitSpec, AlwaysFailingGuardDeoptsOncePerEntryWithoutReentry) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // x is NUMBR-hinted but holds a YARN before the loop starts. The
  // VISIBLE ends one region, so the rest of the body is a region of its
  // own, entered once per iteration; its guard on x fails every time.
  // After each deopt the VM runs that pc itself, so the program finishes
  // and the deopt count equals the entry count: 5 iterations, 5 deopts.
  lol::CompileOptions copts;
  copts.opt_level = 0;  // pin the region boundaries the count relies on
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_reentry_salt ITZ \"always\"\n"
      "I HAS A x ITZ 0\n"
      "x R \"9\"\n"
      "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 5\n"
      "  VISIBLE \".\"\n"
      "  acc R SUM OF acc AN x\n"
      "IM OUTTA YR loop\n"
      "VISIBLE acc\n"
      "KTHXBYE\n",
      copts);
  auto& deopts = lol::obs::Registry::global().counter(
      "lol_jit_deopts_total",
      "Specialized-region guard failures (the VM ran the region's "
      "first op instead)");
  const std::uint64_t before = deopts.value();
  RunResult vm = run_backend(prog, Backend::kVm, 1);
  RunResult jr = run_backend(prog, Backend::kJit, 1);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  ASSERT_TRUE(jr.ok) << jr.first_error();
  EXPECT_EQ(vm.pe_output, jr.pe_output);
  EXPECT_EQ(deopts.value() - before, 5u);
}

TEST(JitSpec, OutOfBoundsInsideARegionMatchesVmAndLeavesNothingParked) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // The whole fill loop is one region over a guarded SRSLY NUMBR array;
  // the store at i = 4 throws inside the runtime call, which parks the
  // exception in the PE's env for the VM to rethrow. Level 0 keeps the
  // loop from being unrolled into code that runs only once.
  lol::CompileOptions copts;
  copts.opt_level = 0;
  auto bad = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_oob_salt ITZ \"oob\"\n"
      "I HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
      "IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 6\n"
      "  arr'Z i R PRODUKT OF i AN 3\n"
      "IM OUTTA YR fill\n"
      "VISIBLE \"unreachable\"\n"
      "KTHXBYE\n",
      copts);
  auto good = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_oob_salt ITZ \"ok\"\n"
      "I HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
      "IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "  arr'Z i R PRODUKT OF i AN 3\n"
      "IM OUTTA YR fill\n"
      "VISIBLE arr'Z 3\n"
      "KTHXBYE\n",
      copts);
  std::string err;
  auto jit = lol::codegen::JitProgram::get_or_build(
      std::make_shared<lol::vm::Chunk>(
          lol::vm::compile_program(bad.program, bad.analysis)),
      &err);
  ASSERT_NE(jit, nullptr) << err;
  ASSERT_EQ(jit->emit_info().regions, 1u);
  RunResult vm = run_backend(bad, Backend::kVm, 1);
  ASSERT_FALSE(vm.ok);

  // A one-PE pool launch runs its PE on the calling thread, so both jit
  // runs below execute on this test's thread: the second one starts on
  // the thread the first one failed on.
  RunConfig cfg;
  cfg.backend = Backend::kJit;
  cfg.executor = lol::shmem::ExecutorKind::kPool;
  RunResult jr = lol::run(bad, cfg);
  EXPECT_FALSE(jr.ok);
  EXPECT_EQ(jr.first_error(), vm.first_error());
  EXPECT_NE(jr.first_error().find("array index 4 out of bounds [0, 4)"),
            std::string::npos)
      << jr.first_error();
  // The region's batches end at the throwing store, so the failed PE
  // charged exactly the VM's steps: nothing after the throw ran twice.
  ASSERT_EQ(jr.pe_profiles.size(), 1u);
  EXPECT_EQ(jr.pe_profiles[0].steps, vm.pe_profiles[0].steps);

  RunResult next = lol::run(good, cfg);
  ASSERT_TRUE(next.ok) << next.first_error();
  EXPECT_EQ(next.pe_output, run_backend(good, Backend::kVm, 1).pe_output);
}

// ---- deopt: guard failure falls back to the VM ------------------------

TEST(JitSpec, DeoptsOnNumbrToYarnFlipMidLoop) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // x is NUMBR-hinted and read in the loop's hot region every
  // iteration; halfway through it flips to a YARN, so every later
  // guarded entry must fail, count a deopt, and resume generically
  // (where SUM coerces the YARN) — output byte-identical to the VM.
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_deopt_salt ITZ \"flip\"\n"
      "I HAS A x ITZ 0\n"
      "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 40\n"
      "  BOTH SAEM i AN 20, O RLY?\n"
      "  YA RLY\n"
      "    x R \"9\"\n"
      "  OIC\n"
      "  acc R SUM OF acc AN x\n"
      "IM OUTTA YR loop\n"
      "VISIBLE acc\n"
      "VISIBLE x\n"
      "KTHXBYE\n");
  auto& deopts = lol::obs::Registry::global().counter(
      "lol_jit_deopts_total",
      "Specialized-region guard failures (the VM ran the region's "
      "first op instead)");
  std::uint64_t before = deopts.value();
  RunResult vm = run_backend(prog, Backend::kVm, 1);
  RunResult jr = run_backend(prog, Backend::kJit, 1);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  ASSERT_TRUE(jr.ok) << jr.first_error();
  EXPECT_EQ(vm.pe_output, jr.pe_output);
  EXPECT_GT(deopts.value(), before)
      << "type flip crossed a guarded region entry without deopting";
}

// ---- step-budget exactness at region boundaries -----------------------

TEST(JitSpec, StepBudgetIsExactAcrossRegionBoundaries) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // Loop bodies run as regions charged in batches; the budget edge must
  // land on exactly the same step as the VM's per-op accounting: S steps
  // pass, S-1 trip the limit. Two inputs: a NUMBR loop at the default
  // level, and SRSLY NUMBR/NUMBAR arithmetic incl. min/max at level 0
  // (which keeps every typed kBinary in the bytecode).
  lol::CompileOptions o0;
  o0.opt_level = 0;
  const lol::CompiledProgram progs[] = {
      lol::compile("HAI 1.2\n"
                   "I HAS A spec_budget_salt ITZ \"edge\"\n"
                   "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
                   "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 50\n"
                   "  acc R SUM OF PRODUKT OF acc AN 1 AN i\n"
                   "IM OUTTA YR loop\n"
                   "VISIBLE acc\n"
                   "KTHXBYE\n"),
      lol::compile("HAI 1.2\n"
                   "I HAS A spec_budget_salt ITZ \"typed\"\n"
                   "I HAS A s ITZ SRSLY A NUMBR AN ITZ 1\n"
                   "I HAS A f ITZ SRSLY A NUMBAR AN ITZ 1.5\n"
                   "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 20\n"
                   "  s R SUM OF s AN 3\n"
                   "  s R PRODUKT OF s AN 2\n"
                   "  s R SMALLR OF s AN 100000\n"
                   "  s R BIGGR OF s AN 7\n"
                   "  s R DIFF OF s AN 1\n"
                   "  f R SUM OF f AN 0.25\n"
                   "  f R PRODUKT OF f AN 1.01\n"
                   "  f R DIFF OF f AN 0.125\n"
                   "IM OUTTA YR lp\n"
                   "VISIBLE SMOOSH s AN \" \" AN f MKAY\n"
                   "KTHXBYE\n",
                   o0)};
  for (const lol::CompiledProgram& prog : progs) {
    RunResult base = run_backend(prog, Backend::kVm, 1);
    ASSERT_TRUE(base.ok) << base.first_error();
    ASSERT_EQ(base.pe_profiles.size(), 1u);
    std::uint64_t steps = base.pe_profiles[0].steps;
    ASSERT_GT(steps, 0u);

    for (Backend b : {Backend::kVm, Backend::kJit}) {
      RunResult exact = run_backend(prog, b, 1, steps);
      EXPECT_TRUE(exact.ok) << lol::to_string(b) << ": "
                            << exact.first_error();
      EXPECT_FALSE(exact.step_limited) << lol::to_string(b);
      EXPECT_EQ(exact.pe_output, base.pe_output) << lol::to_string(b);
      RunResult tight = run_backend(prog, b, 1, steps - 1);
      EXPECT_FALSE(tight.ok) << lol::to_string(b);
      EXPECT_TRUE(tight.step_limited)
          << lol::to_string(b) << " ran past a budget one below exact";
    }
  }
}

// ---- record -> replay trace identity ----------------------------------

TEST(JitSpec, RecordedScheduleReplaysAcrossTiers) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // Symmetric stores are schedule-yield token events even when they run
  // specialized; a schedule recorded under the JIT must replay exactly
  // under both the VM and the JIT. Level 0 keeps the 4-trip loops (and
  // with them the specialized symmetric stores) from being unrolled into
  // code that runs only once.
  lol::CompileOptions copts;
  copts.opt_level = 0;
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_replay_salt ITZ \"trace\"\n"
      "WE HAS A ring ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
      "IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "  ring'Z i R PRODUKT OF SUM OF ME AN 1 AN i\n"
      "IM OUTTA YR fill\n"
      "HUGZ\n"
      "I HAS A nxt ITZ A NUMBR AN ITZ SUM OF ME AN 1\n"
      "BOTH SAEM nxt AN MAH FRENZ, O RLY?\n"
      "YA RLY\n"
      "  nxt R 0\n"
      "OIC\n"
      "I HAS A total ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR gather UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "  TXT MAH BFF nxt, total R SUM OF total AN UR ring'Z i\n"
      "IM OUTTA YR gather\n"
      "VISIBLE \"PE \" ME \" TOTAL \" total\n"
      "KTHXBYE\n",
      copts);
  RunConfig rec;
  rec.n_pes = 4;
  rec.backend = Backend::kJit;
  rec.schedule = lol::replay::ScheduleMode::kRecord;
  RunResult recorded = lol::run(prog, rec);
  ASSERT_TRUE(recorded.ok) << recorded.first_error();
  ASSERT_FALSE(recorded.schedule_trace.empty());
  std::string terr;
  auto trace =
      lol::replay::Trace::parse(recorded.schedule_trace, &terr);
  ASSERT_TRUE(trace.has_value()) << terr;

  for (Backend b : {Backend::kVm, Backend::kJit}) {
    RunConfig rep;
    rep.n_pes = 4;
    rep.backend = b;
    rep.schedule = lol::replay::ScheduleMode::kReplay;
    rep.replay_trace =
        std::make_shared<lol::replay::Trace>(*trace);
    RunResult replayed = lol::run(prog, rep);
    EXPECT_TRUE(replayed.ok)
        << lol::to_string(b) << ": " << replayed.first_error();
    EXPECT_FALSE(replayed.replay_diverged) << lol::to_string(b);
    EXPECT_EQ(recorded.pe_output, replayed.pe_output)
        << lol::to_string(b);
  }
}

}  // namespace
