// Differential cross-backend conformance suite: every program must mean
// the same thing on the interpreter, the VM, the lcc native path and the
// direct x86-64 JIT (Tables 1–3 of the source paper frame conformance
// exactly this way). Cases cover the example programs shipped in
// examples/lol/, the paper's §VI listings, and a table of edge-case
// snippets — including deterministic-seed multi-PE programs, step-limit
// budgets, external aborts and record/replay trace identity, so the
// *classification* parity the service relies on is pinned down, not just
// happy-path output.
//
// When the host has no C compiler the native column is skipped, and on
// non-x86-64 hosts (or under LOL_JIT=0) the jit column is skipped; the
// harness still cross-checks the remaining backends. CI runs all four.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/paper_programs.hpp"
#include "diff_harness.hpp"
#include "replay/trace.hpp"

#ifndef LOL_EXAMPLES_DIR
#define LOL_EXAMPLES_DIR "examples/lol"
#endif

namespace {

using lol::difftest::Outcome;
using lol::difftest::Spec;

Spec make(std::string name, const std::string& body, int n_pes = 1) {
  Spec s;
  s.name = std::move(name);
  s.source = "HAI 1.2\n" + body + "KTHXBYE\n";
  s.n_pes = n_pes;
  return s;
}

void expect_agreement(const Spec& spec) {
  std::string report = lol::difftest::divergence(spec);
  EXPECT_EQ(report, "") << report;
}

TEST(Differential, BackendAvailabilityIsReported) {
  // A visible record in the test log of which optional columns ran on
  // this host, plus a pin that the count matches the availability probes
  // (a backend silently falling out of backends_under_test() would
  // otherwise shrink the matrix without failing anything).
  std::size_t expected = 2;  // interp + vm, always
  if (lol::difftest::native_available()) ++expected;
  if (lol::difftest::jit_available()) ++expected;
  EXPECT_EQ(lol::difftest::backends_under_test().size(), expected);
  if (!lol::difftest::native_available()) {
    GTEST_SKIP() << "no host C compiler: native column skipped";
  }
  if (!lol::difftest::jit_available()) {
    GTEST_SKIP() << "no x86-64 executable mmap (or LOL_JIT=0): jit "
                    "column skipped";
  }
}

// The teaching-scale acceptance case: the §VI programs at PE counts far
// beyond this host's cores, fiber vs thread, byte-identical per PE. The
// full backend matrix already runs above at 4 PEs; this pins the scale
// the paper's machines had (256-512 of the Parallella cluster's 4,096)
// on the one executor that can reach it, against the thread executor as
// the reference. VM backend: one backend keeps 512-OS-thread reference
// runs affordable, and backend parity is covered by the matrix tests.
TEST(Differential, HighPeFiberMatchesThreadExecutor) {
  std::vector<Spec> specs;

  Spec heat;
  heat.name = "heat_1d-256pe";
  heat.n_pes = 256;
  heat.heap_bytes = 64 << 10;
  {
    auto loaded = lol::difftest::load_lol_dir(LOL_EXAMPLES_DIR, heat.n_pes);
    for (auto& s : loaded) {
      if (s.name == "heat_1d.lol") heat.source = s.source;
    }
  }
  ASSERT_FALSE(heat.source.empty()) << "heat_1d.lol not found";
  specs.push_back(heat);

  Spec ring;
  ring.name = "paper-ring-512pe";
  ring.source = lol::paper::ring_listing();
  ring.n_pes = 512;
  ring.heap_bytes = 16 << 10;
  specs.push_back(ring);

  Spec bsum;
  bsum.name = "paper-barrier-sum-512pe";
  bsum.source = lol::paper::barrier_sum_listing();
  bsum.n_pes = 512;
  bsum.heap_bytes = 16 << 10;
  specs.push_back(bsum);

  for (Spec& spec : specs) {
    SCOPED_TRACE(spec.name);
    spec.pes_per_thread = 64;  // force real multiplexing on any host
    auto thread_run =
        lol::difftest::run_one(spec, lol::Backend::kVm,
                               lol::shmem::ExecutorKind::kThread);
    auto fiber_run =
        lol::difftest::run_one(spec, lol::Backend::kVm,
                               lol::shmem::ExecutorKind::kFiber);
    EXPECT_EQ(lol::difftest::to_string(thread_run.outcome),
              std::string(lol::difftest::to_string(fiber_run.outcome)));
    ASSERT_EQ(thread_run.outcome, lol::difftest::Outcome::kOk)
        << thread_run.error;
    EXPECT_EQ(thread_run.pe_output, fiber_run.pe_output);
    EXPECT_EQ(thread_run.pe_errout, fiber_run.pe_errout);
  }
}

// The barrier radix is a pure performance knob: the same program at the
// same PE count must print byte-identical output for a binary tree, the
// auto radix, and the flat degenerate — on both executors. (CI also
// runs the entire suite under LOL_BARRIER_RADIX=3 in one matrix leg.)
TEST(Differential, BarrierRadixIsOutputInvariant) {
  Spec bsum;
  bsum.name = "paper-barrier-sum-256pe";
  bsum.source = lol::paper::barrier_sum_listing();
  bsum.n_pes = 256;
  bsum.heap_bytes = 16 << 10;
  bsum.pes_per_thread = 64;

  Spec ref = bsum;  // radix 0 = auto, thread executor
  auto ref_run = lol::difftest::run_one(ref, lol::Backend::kVm,
                                        lol::shmem::ExecutorKind::kThread);
  ASSERT_EQ(ref_run.outcome, lol::difftest::Outcome::kOk) << ref_run.error;

  for (int radix : {2, 16, 256}) {
    for (auto executor : {lol::shmem::ExecutorKind::kThread,
                          lol::shmem::ExecutorKind::kFiber}) {
      SCOPED_TRACE(std::string("radix ") + std::to_string(radix) + " on " +
                   lol::shmem::to_string(executor));
      Spec spec = bsum;
      spec.barrier_radix = radix;
      auto run = lol::difftest::run_one(spec, lol::Backend::kVm, executor);
      ASSERT_EQ(run.outcome, lol::difftest::Outcome::kOk) << run.error;
      EXPECT_EQ(run.pe_output, ref_run.pe_output);
      EXPECT_EQ(run.pe_errout, ref_run.pe_errout);
    }
  }
}

// The optimizer is a pure performance transform: -O0, -O1 and -O2 must
// print byte-identical per-PE output on every backend x executor cell.
// Workloads chosen to actually exercise the passes — heat_1d folds and
// propagates its constants, the n-body listing hoists loop invariants
// and fuses its interaction updates, barrier-sum is the straight-line
// control. (CI also
// runs the entire suite under LOL_OPT_LEVEL=0 in one matrix leg.)
TEST(Differential, OptimizedMatchesUnoptimizedAcrossTheMatrix) {
  std::vector<Spec> workloads;
  workloads.push_back(
      lol::difftest::load_lol_dir(LOL_EXAMPLES_DIR, 4).empty()
          ? make("fallback", "VISIBLE SUM OF 1 AN 2\n")
          : [] {
              auto all = lol::difftest::load_lol_dir(LOL_EXAMPLES_DIR, 4);
              for (auto& s : all) {
                if (s.name == "heat_1d.lol") return s;
              }
              return all.front();
            }());
  Spec nbody;
  nbody.name = "paper-nbody";
  nbody.source = lol::paper::nbody_program(6, 2, true);
  nbody.n_pes = 2;
  workloads.push_back(nbody);
  Spec bsum;
  bsum.name = "paper-barrier-sum";
  bsum.source = lol::paper::barrier_sum_listing();
  bsum.n_pes = 4;
  workloads.push_back(bsum);

  for (Spec& spec : workloads) {
    SCOPED_TRACE(spec.name);
    spec.opt_level = 0;
    auto ref = lol::difftest::run_one(spec, lol::Backend::kVm);
    ASSERT_EQ(ref.outcome, Outcome::kOk) << ref.error;
    for (int level : {1, 2}) {
      Spec opt = spec;
      opt.opt_level = level;
      for (lol::Backend b : lol::difftest::backends_under_test()) {
        for (auto e : lol::difftest::executors_under_test()) {
          SCOPED_TRACE(std::string("-O") + std::to_string(level) + " on " +
                       lol::difftest::backend_label(b) + "/" +
                       lol::shmem::to_string(e));
          auto run = lol::difftest::run_one(opt, b, e);
          ASSERT_EQ(run.outcome, Outcome::kOk) << run.error;
          EXPECT_EQ(run.pe_output, ref.pe_output);
          EXPECT_EQ(run.pe_errout, ref.pe_errout);
        }
      }
    }
  }
}

TEST(Differential, ExamplePrograms) {
  std::vector<Spec> specs = lol::difftest::load_lol_dir(LOL_EXAMPLES_DIR, 4);
  ASSERT_FALSE(specs.empty())
      << "no .lol programs found under " << LOL_EXAMPLES_DIR;
  for (const Spec& spec : specs) {
    SCOPED_TRACE(spec.name);
    expect_agreement(spec);
  }
}

TEST(Differential, PaperListings) {
  std::vector<Spec> specs;
  Spec ring;
  ring.name = "paper-ring";
  ring.source = lol::paper::ring_listing();
  ring.n_pes = 4;
  specs.push_back(ring);

  Spec locks;
  locks.name = "paper-lock-counter";
  locks.source = lol::paper::lock_counter_listing(25);
  locks.n_pes = 4;
  specs.push_back(locks);

  Spec bsum;
  bsum.name = "paper-barrier-sum";
  bsum.source = lol::paper::barrier_sum_listing();
  bsum.n_pes = 4;
  specs.push_back(bsum);

  // The full §VI.D n-body listing on one PE (exact stdout ordering) and
  // a smaller configuration across PEs (per-PE trajectories must still
  // agree byte for byte — the barriers make them deterministic).
  Spec nbody1;
  nbody1.name = "paper-nbody-1pe";
  nbody1.source = lol::paper::nbody_program(8, 3, true);
  nbody1.n_pes = 1;
  specs.push_back(nbody1);

  Spec nbody4;
  nbody4.name = "paper-nbody-4pe";
  nbody4.source = lol::paper::nbody_program(6, 2, true);
  nbody4.n_pes = 4;
  specs.push_back(nbody4);

  for (const Spec& spec : specs) {
    SCOPED_TRACE(spec.name);
    expect_agreement(spec);
  }
}

TEST(Differential, EdgeCaseTable) {
  std::vector<Spec> specs;

  specs.push_back(make(
      "arith-mixed",
      "VISIBLE SUM OF 2 AN PRODUKT OF 3 AN 4\n"
      "VISIBLE DIFF OF 1.5 AN 0.25\n"
      "VISIBLE QUOSHUNT OF 7 AN 2\n"
      "VISIBLE QUOSHUNT OF 7.0 AN 2\n"
      "VISIBLE MOD OF 17 AN 5\n"
      "VISIBLE BIGGR OF 3 AN 9\n"
      "VISIBLE SMALLR OF 3.5 AN 9\n"
      "VISIBLE SQUAR OF 12\n"
      "VISIBLE UNSQUAR OF 2.25\n"
      "VISIBLE FLIP OF 4.0\n"));

  specs.push_back(make(
      "compare-and-bool",
      "VISIBLE BOTH SAEM 3 AN 3.0\n"
      "VISIBLE DIFFRINT \"a\" AN \"b\"\n"
      "VISIBLE BIGGER 4 AN 2\n"
      "VISIBLE SMALLR 4 AN 2\n"
      "VISIBLE BOTH OF WIN AN FAIL\n"
      "VISIBLE EITHER OF WIN AN FAIL\n"
      "VISIBLE WON OF WIN AN WIN\n"
      "VISIBLE NOT FAIL\n"
      "VISIBLE ALL OF WIN AN 1 AN \"x\" MKAY\n"
      "VISIBLE ANY OF FAIL AN 0 AN \"\" MKAY\n"));

  specs.push_back(make(
      "yarn-smoosh-interp",
      "I HAS A who ITZ \"WORLD\"\n"
      "I HAS A n ITZ 3.5\n"
      "VISIBLE SMOOSH \"HAI \" who \"!\" MKAY\n"
      "VISIBLE \"n=:{n} who=:{who}\"\n"));

  specs.push_back(make(
      "casts",
      "I HAS A x ITZ \"42\"\n"
      "VISIBLE SUM OF MAEK x A NUMBR AN 1\n"
      "I HAS A y ITZ 3.99\n"
      "y IS NOW A NUMBR\n"
      "VISIBLE y\n"
      "I HAS A z ITZ SRSLY A NUMBR\n"
      "z R \"17\"\n"
      "VISIBLE z\n"
      "VISIBLE MAEK WIN A NUMBR\n"));

  specs.push_back(make(
      "orly-mebbe-chain",
      "I HAS A x ITZ 7\n"
      "BOTH SAEM x AN 1, O RLY?\n"
      "YA RLY\n  VISIBLE \"one\"\n"
      "MEBBE BOTH SAEM x AN 7\n  VISIBLE \"seven\"\n"
      "MEBBE BOTH SAEM x AN 9\n  VISIBLE \"nine\"\n"
      "NO WAI\n  VISIBLE \"other\"\n"
      "OIC\n"));

  specs.push_back(make(
      "wtf-fallthrough-gtfo",
      "I HAS A x ITZ 2\n"
      "x, WTF?\n"
      "OMG 1\n  VISIBLE \"one\"\n  GTFO\n"
      "OMG 2\n  VISIBLE \"two\"\n"
      "OMG 3\n  VISIBLE \"three\"\n  GTFO\n"
      "OMGWTF\n  VISIBLE \"other\"\n"
      "OIC\n"));

  specs.push_back(make(
      "loops-uppin-nerfin-gtfo",
      "IM IN YR up UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "  VISIBLE i\n"
      "IM OUTTA YR up\n"
      "I HAS A k ITZ 2\n"
      "IM IN YR down NERFIN YR j WILE BIGGER SUM OF j AN k AN 0\n"
      "  VISIBLE j\n"
      "IM OUTTA YR down\n"
      "I HAS A c ITZ 0\n"
      "IM IN YR spin\n"
      "  c R SUM OF c AN 1\n"
      "  BOTH SAEM c AN 3, O RLY?\n  YA RLY\n    GTFO\n  OIC\n"
      "IM OUTTA YR spin\n"
      "VISIBLE c\n"));

  specs.push_back(make(
      "functions-recursion",
      "HOW IZ I fib YR n\n"
      "  SMALLR n AN 2, O RLY?\n"
      "  YA RLY\n    FOUND YR n\n"
      "  OIC\n"
      "  FOUND YR SUM OF I IZ fib YR DIFF OF n AN 1 MKAY ...\n"
      "    AN I IZ fib YR DIFF OF n AN 2 MKAY\n"
      "IF U SAY SO\n"
      "HOW IZ I doublin YR x\n"
      "  FOUND YR PRODUKT OF BIGGR OF x AN 1 AN 2\n"
      "IF U SAY SO\n"
      "VISIBLE I IZ fib YR 10 MKAY\n"
      "IM IN YR loop doublin YR i TIL BIGGER i AN 10\n"
      "  VISIBLE i\n"
      "IM OUTTA YR loop\n"));

  specs.push_back(make(
      "arrays-dyn-and-srsly",
      "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 4\n"
      "a'Z 0 R 10\n"
      "a'Z 3 R SUM OF a'Z 0 AN 5\n"
      "VISIBLE a'Z 0\nVISIBLE a'Z 1\nVISIBLE a'Z 3\n"
      "I HAS A f ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 2\n"
      "f'Z 0 R 1.5\nf'Z 1 R PRODUKT OF f'Z 0 AN 4\n"
      "VISIBLE f'Z 1\n"
      "I HAS A b ITZ LOTZ A NUMBRS AN THAR IZ 4\n"
      "b R a\n"
      "VISIBLE b'Z 3\n"));

  specs.push_back(make(
      "invisible-stderr",
      "VISIBLE \"to stdout\"\n"
      "INVISIBLE \"to stderr\"\n"));

  specs.push_back(make(
      "gimmeh-lines-and-eof",
      "I HAS A x\nI HAS A y\nI HAS A z\n"
      "GIMMEH x\nGIMMEH y\nGIMMEH z\n"
      "VISIBLE SMOOSH \"[\" x \"|\" y \"|\" z \"]\" MKAY\n"));
  specs.back().stdin_lines = {"first line", "second line"};

  // Runtime errors must classify identically (messages may differ in
  // location detail; the harness compares classification only).
  specs.push_back(make("err-div-by-zero", "VISIBLE QUOSHUNT OF 1 AN 0\n"));
  specs.back().n_pes = 2;
  specs.push_back(make("err-negative-sqrt", "VISIBLE UNSQUAR OF -4.0\n"));
  specs.push_back(make(
      "err-array-oob",
      "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 2\nVISIBLE a'Z 5\n"));
  specs.push_back(make("err-bad-cast", "VISIBLE SUM OF \"nope\" AN 1\n"));

  for (const Spec& spec : specs) {
    SCOPED_TRACE(spec.name);
    expect_agreement(spec);
  }
}

TEST(Differential, MultiPeDeterministicSeedPrograms) {
  // Scheduling nondeterminism is exercised (4 PEs racing through locks
  // and barriers) but per-PE output stays comparable: WHATEVR streams
  // are seeded per PE, and the reductions are order-independent.
  std::vector<Spec> specs;

  specs.push_back(make(
      "whatevr-streams",
      "VISIBLE \"PE \" ME \" DRAWS \" WHATEVR \" \" WHATEVR\n"
      "VISIBLE \"PE \" ME \" REAL \" WHATEVAR\n",
      4));
  specs.back().seed = 123456789;

  specs.push_back(make(
      "bff-ring-exchange",
      "WE HAS A slot ITZ SRSLY A NUMBR\n"
      "HUGZ\n"
      "I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
      "TXT MAH BFF nxt\n"
      "  UR slot R PRODUKT OF ME AN 100\n"
      "TTYL\n"
      "HUGZ\n"
      "VISIBLE \"PE \" ME \" HAZ \" slot\n",
      4));

  specs.push_back(make(
      "atomic-ish-lock-sum",
      "WE HAS A total ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
      "HUGZ\n"
      "IM IN YR add UPPIN YR i TIL BOTH SAEM i AN 10\n"
      "  TXT MAH BFF 0 AN STUFF\n"
      "    IM SRSLY MESIN WIF UR total\n"
      "    UR total R SUM OF UR total AN 1\n"
      "    DUN MESIN WIF UR total\n"
      "  TTYL\n"
      "IM OUTTA YR add\n"
      "HUGZ\n"
      "BOTH SAEM ME AN 0, O RLY?\n"
      "YA RLY\n  VISIBLE \"TOTAL \" total\nOIC\n",
      4));

  for (const Spec& spec : specs) {
    SCOPED_TRACE(spec.name);
    expect_agreement(spec);
  }
}

TEST(Differential, StepLimitClassifiesIdentically) {
  // A tiny budget against an infinite loop: every backend must report
  // step-limited (a step is backend-defined, so the budget is orders of
  // magnitude away from the edge in both directions).
  Spec spin = make("spin-steplimit", "IM IN YR l\nIM OUTTA YR l\n", 2);
  spin.max_steps = 500;
  {
    SCOPED_TRACE(spin.name);
    expect_agreement(spin);
    auto r = lol::difftest::run_one(spin, lol::Backend::kInterp);
    EXPECT_EQ(r.outcome, Outcome::kStepLimit);
  }

  // A generous budget over a bounded program: nobody may trip.
  Spec ok = make("bounded-generous-budget",
                 "I HAS A s ITZ 0\n"
                 "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 50\n"
                 "  s R SUM OF s AN i\n"
                 "IM OUTTA YR l\n"
                 "VISIBLE s\n");
  ok.max_steps = 1'000'000;
  {
    SCOPED_TRACE(ok.name);
    expect_agreement(ok);
    auto r = lol::difftest::run_one(ok, lol::Backend::kVm);
    EXPECT_EQ(r.outcome, Outcome::kOk);
  }
}

TEST(Differential, ExternalAbortClassifiesIdentically) {
  // A spinning program with no step budget, killed from outside — the
  // path the service's deadline reaper and cancel() use. Every backend
  // must die promptly and classify as aborted.
  Spec spin = make("spin-abort", "IM IN YR l\nIM OUTTA YR l\n", 2);
  spin.abort_after_ms = 50;
  for (lol::Backend b : lol::difftest::backends_under_test()) {
    SCOPED_TRACE(lol::difftest::backend_label(b));
    auto r = lol::difftest::run_one(spin, b);
    EXPECT_EQ(r.outcome, Outcome::kAborted);
    EXPECT_LT(r.wall_ms, 5000.0);
  }
}

TEST(Differential, RecordedTraceReplaysIdenticallyOnEveryBackend) {
  // Record/replay closes the conformance loop: a schedule recorded on
  // one backend must drive every other backend to byte-identical output.
  // This is stronger than free-running agreement — the replayed schedule
  // pins the exact interleaving, so a backend that sequences its shared
  // stores or barrier arrivals differently from the recorded semantics
  // is diagnosed as divergence instead of hiding behind determinism.
  const std::string source =
      "HAI 1.2\n"
      "WE HAS A count ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
      "HUGZ\n"
      "TXT MAH BFF 0 AN STUFF\n"
      "  IM SRSLY MESIN WIF UR count\n"
      "  UR count R SUM OF UR count AN 1\n"
      "  DUN MESIN WIF UR count\n"
      "TTYL\n"
      "HUGZ\n"
      "BOTH SAEM ME AN 0, O RLY?\n"
      "YA RLY\n  VISIBLE count\nOIC\n"
      "KTHXBYE\n";
  auto prog = lol::compile(source);

  for (lol::Backend rec_backend : lol::difftest::backends_under_test()) {
    SCOPED_TRACE(std::string("recorded on ") +
                 lol::difftest::backend_label(rec_backend));
    lol::RunConfig rec_cfg;
    rec_cfg.n_pes = 4;
    rec_cfg.backend = rec_backend;
    rec_cfg.schedule = lol::replay::ScheduleMode::kRecord;
    lol::RunResult rec = lol::run(prog, rec_cfg);
    ASSERT_TRUE(rec.ok) << rec.first_error();
    ASSERT_FALSE(rec.schedule_trace.empty());
    std::string err;
    auto trace = lol::replay::Trace::parse(rec.schedule_trace, &err);
    ASSERT_TRUE(trace.has_value()) << err;
    auto shared =
        std::make_shared<lol::replay::Trace>(std::move(*trace));

    for (lol::Backend rep_backend : lol::difftest::backends_under_test()) {
      SCOPED_TRACE(std::string("replayed on ") +
                   lol::difftest::backend_label(rep_backend));
      lol::RunConfig cfg;
      cfg.n_pes = 4;
      cfg.backend = rep_backend;
      cfg.schedule = lol::replay::ScheduleMode::kReplay;
      cfg.replay_trace = shared;
      lol::RunResult rep = lol::run(prog, cfg);
      ASSERT_TRUE(rep.ok) << rep.first_error();
      EXPECT_FALSE(rep.replay_diverged);
      EXPECT_EQ(rep.pe_output, rec.pe_output);
      EXPECT_EQ(rep.pe_errout, rec.pe_errout);
    }
  }
}

}  // namespace
