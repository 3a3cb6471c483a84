// Unit tests for the optimizing middle-end (src/opt): golden
// before/after AST dumps per pass, level gating, the sema::Analysis
// surviving the pipeline, and the cache-key hash mixing. Each case
// parses + analyzes a small program, runs the pipeline, and asserts on
// the structural dump — the same s-expression shape the parser golden
// tests use — plus the Stats counters, so a pass silently not firing
// fails loudly rather than vacuously passing.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/printer.hpp"
#include "core/paper_programs.hpp"
#include "opt/opt.hpp"
#include "parse/parser.hpp"
#include "sema/analyzer.hpp"

#ifndef LOL_EXAMPLES_DIR
#define LOL_EXAMPLES_DIR "examples/lol"
#endif

namespace {

using lol::opt::Options;
using lol::opt::Stats;

/// Wraps `body` in HAI/KTHXBYE, analyzes, optimizes at `level`, and
/// returns the structural dump of the whole program. Stats land in
/// *stats when given.
std::string opt_dump(std::string_view body, int level = 2,
                     Stats* stats = nullptr) {
  std::string src = "HAI 1.2\n" + std::string(body) + "\nKTHXBYE\n";
  lol::ast::Program p = lol::parse::parse_program(src);
  (void)lol::sema::analyze(p);
  Options opts;
  opts.level = level;
  lol::opt::optimize(p, opts, stats);
  return lol::ast::dump(p);
}

bool contains(const std::string& hay, std::string_view needle) {
  return hay.find(needle) != std::string::npos;
}

// -- fold ---------------------------------------------------------------------

TEST(OptFold, FoldsNestedConstantArithmetic) {
  Stats st;
  std::string d = opt_dump("VISIBLE SUM OF 3 AN SUM OF 2 AN 2", 2, &st);
  EXPECT_EQ(d, "(program\n  (visible (numbr 7)))");
  EXPECT_GT(st.folded, 0u);
}

TEST(OptFold, FoldsCastChains) {
  // MAEK over a literal folds through the runtime's own cast ops, so
  // the folded YARN is bit-identical to what run time would print.
  std::string d = opt_dump("VISIBLE MAEK 2 A YARN");
  EXPECT_EQ(d, "(program\n  (visible (yarn \"2\")))");
}

TEST(OptFold, NeverFoldsThrowingExpressions) {
  // Division by zero throws at run time; folding it would turn a
  // runtime error into a compile-time one (or worse, a wrong value).
  std::string d = opt_dump("VISIBLE QUOSHUNT OF 1 AN 0");
  EXPECT_TRUE(contains(d, "(quoshunt (numbr 1) (numbr 0))")) << d;
}

// -- prop + dce ---------------------------------------------------------------

TEST(OptProp, PropagatesAndRemovesDeadScalar) {
  Stats st;
  std::string d = opt_dump("I HAS A x ITZ 5\nVISIBLE SUM OF x AN 1", 2, &st);
  EXPECT_EQ(d, "(program\n  (visible (numbr 6)))");
  EXPECT_GT(st.propagated, 0u);
  EXPECT_GT(st.dead, 0u);
}

TEST(OptProp, InterpolationKeepsDeclarationAlive) {
  // `:{x}` reads the environment by name at print time, so the
  // declaration must survive even though every expression read of x
  // was propagated away.
  std::string d = opt_dump("I HAS A x ITZ 5\nVISIBLE \":{x}\"");
  EXPECT_TRUE(contains(d, "(decl i x")) << d;
}

TEST(OptDce, KeepsUnreadArraysWhoseSizeMayNotBePositive) {
  // A non-positive size is a runtime error at -O0, so dce must keep the
  // declaration unless the size is provably positive.
  for (const char* size : {"0", "-3", "ME", "n", "\"x\"", "FAIL"}) {
    SCOPED_TRACE(size);
    Stats st;
    std::string d = opt_dump(std::string("I HAS A n ITZ 0\n") +
                                 "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ " +
                                 size + "\nVISIBLE 1",
                             2, &st);
    EXPECT_TRUE(contains(d, " a ")) << d;
  }
  for (const char* size : {"4", "2.5", "\"7\"", "MAH FRENZ"}) {
    SCOPED_TRACE(size);
    Stats st;
    std::string d = opt_dump(
        std::string("I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ ") + size +
            "\nVISIBLE 1",
        2, &st);
    EXPECT_EQ(d, "(program\n  (visible (numbr 1)))");
    EXPECT_EQ(st.dead, 1u);
  }
}

// -- licm ---------------------------------------------------------------------

TEST(OptLicm, HoistsInvariantProduct) {
  // a and b are mutated before the loop, so prop cannot erase them —
  // but SRSLY typing proves them NUMBR, making PRODUKT total and
  // hoistable.
  Stats st;
  std::string d = opt_dump(
      "I HAS A a ITZ SRSLY A NUMBR AN ITZ 5\n"
      "I HAS A b ITZ SRSLY A NUMBR AN ITZ 7\n"
      "a R SUM OF a AN 2\n"
      "b R SUM OF b AN 1\n"
      "I HAS A s ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 20\n"
      "  s R SUM OF s AN PRODUKT OF a AN b\n"
      "IM OUTTA YR lp\n"
      "VISIBLE s",
      2, &st);
  EXPECT_TRUE(contains(d, "(decl i licm_t0 init=(produkt (var a) (var b)))"))
      << d;
  EXPECT_TRUE(contains(d, "(sum (var s) (var licm_t0))")) << d;
  EXPECT_GT(st.hoisted, 0u);
}

TEST(OptLicm, NeverHoistsCounterDependentExpressions) {
  Stats st;
  std::string d = opt_dump(
      "I HAS A a ITZ SRSLY A NUMBR AN ITZ 5\n"
      "a R SUM OF a AN 2\n"
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 20\n"
      "  VISIBLE SUM OF i AN a\n"
      "IM OUTTA YR lp",
      2, &st);
  EXPECT_FALSE(contains(d, "licm_t")) << d;
  EXPECT_EQ(st.hoisted, 0u);
}

// -- strength -----------------------------------------------------------------

TEST(OptStrength, ReducesCounterTimesConstant) {
  Stats st;
  std::string d = opt_dump(
      "I HAS A s ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 100\n"
      "  s R SUM OF s AN PRODUKT OF i AN 3\n"
      "IM OUTTA YR lp\n"
      "VISIBLE s",
      2, &st);
  EXPECT_TRUE(contains(d, "(decl i sr_acc0 init=(numbr 0))")) << d;
  EXPECT_TRUE(contains(d, "(assign (var sr_acc0) (sum (var sr_acc0) "
                          "(numbr 3)))"))
      << d;
  EXPECT_GT(st.reduced, 0u);
}

// -- SRS gating ---------------------------------------------------------------

TEST(OptSrs, DynamicNamesDisableNameSensitivePasses) {
  // SRS can read or write any variable by computed name, so prop/dce/
  // licm must all stand down; only the never-mutated literal fold of
  // pure arithmetic could still fire, and x's declaration must stay.
  Stats st;
  std::string d = opt_dump(
      "I HAS A x ITZ 5\n"
      "I HAS A n ITZ \"x\"\n"
      "SRS n R 9\n"
      "VISIBLE x",
      2, &st);
  EXPECT_TRUE(contains(d, "(decl i x")) << d;
  EXPECT_EQ(st.propagated, 0u);
  EXPECT_EQ(st.dead, 0u);
}

// -- squaring rewrite ---------------------------------------------------------

TEST(OptFold, RewritesSelfProductOfTypedScalarToSquar) {
  // PRODUKT OF x AN x reads x twice; SQUAR OF x squares through the same
  // rt::to_num coercion, so on a provably numeric scalar the value is
  // bit-identical and one of the two name lookups disappears.
  Stats st;
  std::string d = opt_dump(
      "I HAS A x ITZ SRSLY A NUMBAR AN ITZ 1.5\n"
      "x R WHATEVAR\n"
      "VISIBLE PRODUKT OF x AN x",
      2, &st);
  EXPECT_TRUE(contains(d, "(visible (squar (var x)))")) << d;
}

TEST(OptFold, KeepsSelfProductOfUntypedScalar) {
  // An untyped x could hold a YARN at run time, and the PRODUKT and
  // SQUAR type errors carry different messages — no rewrite.
  std::string d = opt_dump(
      "I HAS A y\n"
      "y R WHATEVR\n"
      "VISIBLE PRODUKT OF y AN y");
  EXPECT_TRUE(contains(d, "(produkt (var y) (var y))")) << d;
}

// -- forward substitution -----------------------------------------------------

TEST(OptFuse, FusesDefsIntoSelfUpdatesAcrossEachOther) {
  // The nbody interaction shape: two defs from typed-array reads, then
  // the self-squarings. b's def crosses a's (local-pure) square to reach
  // its use; that leaves a's def adjacent to its own. Both fuse, so each
  // pair costs one statement, one store and one lookup instead of two.
  Stats st;
  std::string d = opt_dump(
      "I HAS A a ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "I HAS A b ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "I HAS A p ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n"
      "a R DIFF OF p'Z 0 AN p'Z 1\n"
      "b R DIFF OF p'Z 2 AN p'Z 3\n"
      "a R PRODUKT OF a AN a\n"
      "b R PRODUKT OF b AN b\n"
      "VISIBLE SUM OF a AN b",
      2, &st);
  EXPECT_EQ(st.fused, 2u);
  EXPECT_TRUE(contains(d,
                       "(assign (var a) (squar (diff (index (var p) "
                       "(numbr 0)) (index (var p) (numbr 1)))))"))
      << d;
  EXPECT_TRUE(contains(d,
                       "(assign (var b) (squar (diff (index (var p) "
                       "(numbr 2)) (index (var p) (numbr 3)))))"))
      << d;
}

TEST(OptFuse, InterveningReadBlocksFusion) {
  // c reads a between a's def and a's self-update: fusing would hand c
  // the stale value.
  Stats st;
  std::string d = opt_dump(
      "I HAS A a ITZ SRSLY A NUMBR AN ITZ 0\n"
      "I HAS A c ITZ SRSLY A NUMBR AN ITZ 0\n"
      "a R SUM OF 2 AN 2\n"
      "c R SUM OF a AN 1\n"
      "a R SUM OF a AN 1\n"
      "VISIBLE SMOOSH a AN c MKAY",
      2, &st);
  EXPECT_EQ(st.fused, 0u);
  EXPECT_TRUE(contains(d, "(assign (var a) (numbr 4))")) << d;
}

TEST(OptFuse, OutOfBoundsIndexBlocksFusion) {
  // p'Z 9 throws at the def's location; moving the read to the use site
  // would move the reported error. The def must stay put.
  Stats st;
  std::string d = opt_dump(
      "I HAS A a ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "I HAS A p ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n"
      "a R DIFF OF p'Z 0 AN p'Z 9\n"
      "a R PRODUKT OF a AN a\n"
      "VISIBLE a",
      2, &st);
  EXPECT_EQ(st.fused, 0u);
}

TEST(OptFuse, SymmetricTargetBlocksFusion) {
  // A symmetric scalar's store is observable by other PEs; dropping it
  // is never sound.
  Stats st;
  std::string d = opt_dump(
      "WE HAS A g ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
      "g R 4\n"
      "g R SUM OF g AN 1\n"
      "VISIBLE g",
      2, &st);
  EXPECT_EQ(st.fused, 0u);
}

// -- level gating -------------------------------------------------------------

TEST(OptLevels, LevelZeroIsANoOp) {
  Stats st;
  std::string d = opt_dump("VISIBLE SUM OF 3 AN 4", 0, &st);
  EXPECT_TRUE(contains(d, "(sum (numbr 3) (numbr 4))")) << d;
  EXPECT_EQ(st.total(), 0u);
}

TEST(OptLevels, SmallCountingLoopStaysALoop) {
  // The pipeline never unrolls: even a 3-trip counting loop keeps its
  // loop at the full level.
  Stats st;
  std::string d = opt_dump(
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 3\n"
      "  VISIBLE i\n"
      "IM OUTTA YR lp",
      2, &st);
  EXPECT_TRUE(contains(d, "(loop lp uppin:i")) << d;
}

TEST(OptLevels, LevelOneFoldsButDoesNotHoist) {
  // The invariant product is hoisted at level 2 only; level 1 still
  // folds the constant arithmetic.
  const std::string body =
      "VISIBLE SUM OF 3 AN 4\n"
      "I HAS A a ITZ SRSLY A NUMBR AN ITZ 5\n"
      "I HAS A b ITZ SRSLY A NUMBR AN ITZ 7\n"
      "a R SUM OF a AN 2\n"
      "b R SUM OF b AN 1\n"
      "I HAS A s ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 20\n"
      "  s R SUM OF s AN PRODUKT OF a AN b\n"
      "IM OUTTA YR lp\n"
      "VISIBLE s";
  Stats one;
  std::string d1 = opt_dump(body, 1, &one);
  EXPECT_TRUE(contains(d1, "(visible (numbr 7))")) << d1;
  EXPECT_FALSE(contains(d1, "licm_t")) << d1;
  EXPECT_GT(one.folded, 0u);
  EXPECT_EQ(one.hoisted, 0u);

  Stats two;
  std::string d2 = opt_dump(body, 2, &two);
  EXPECT_TRUE(contains(d2, "licm_t0")) << d2;
  EXPECT_GT(two.hoisted, 0u);
}

// -- the Analysis survives the pipeline ---------------------------------------

/// The corpus and the paper's listings: every program lol::compile sees
/// in the examples and the §VI worked examples.
std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> out;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(LOL_EXAMPLES_DIR)) {
    if (e.path().extension() == ".lol") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    std::ifstream in(f);
    std::ostringstream text;
    text << in.rdbuf();
    out.emplace_back(f.filename().string(), text.str());
  }
  out.emplace_back("ring", lol::paper::ring_listing());
  out.emplace_back("lock_counter", lol::paper::lock_counter_listing());
  out.emplace_back("barrier_sum", lol::paper::barrier_sum_listing());
  out.emplace_back("nbody", lol::paper::nbody_listing());
  out.emplace_back("nbody_8_2", lol::paper::nbody_program(8, 2, true));
  // No corpus program defines a function; this one does, next to
  // symmetric declarations whose initializers fold.
  out.emplace_back("functions",
                   "HAI 1.2\n"
                   "WE HAS A g ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
                   "WE HAS A h ITZ SRSLY A NUMBR AN ITZ SUM OF 2 AN 2\n"
                   "HOW IZ I twice YR n\n"
                   "  I HAS A unused ITZ 1\n"
                   "  FOUND YR PRODUKT OF n AN SUM OF 1 AN 1\n"
                   "IF U SAY SO\n"
                   "VISIBLE I IZ twice YR SUM OF 3 AN 4 MKAY\n"
                   "KTHXBYE\n");
  return out;
}

TEST(OptAnalysis, AnalysisBeforeOptimizeMatchesFreshAnalysis) {
  // lol::compile analyzes once, before optimize(): the passes must keep
  // every function definition and symmetric declaration the Analysis
  // borrows. Re-analyzing the optimized program must give the same
  // pointers, slots and lock ids.
  const auto programs = corpus();
  ASSERT_GE(programs.size(), 10u) << "examples missing under "
                                 << LOL_EXAMPLES_DIR;
  for (const auto& [name, source] : programs) {
    SCOPED_TRACE(name);
    lol::ast::Program p = lol::parse::parse_program(source);
    const lol::sema::Analysis before = lol::sema::analyze(p);
    Options opts;
    opts.level = 2;
    lol::opt::optimize(p, opts);
    const lol::sema::Analysis after = lol::sema::analyze(p);

    EXPECT_EQ(before.lock_count, after.lock_count);
    ASSERT_EQ(before.functions.size(), after.functions.size());
    for (const auto& [fname, info] : before.functions) {
      auto it = after.functions.find(fname);
      ASSERT_NE(it, after.functions.end()) << fname;
      EXPECT_EQ(info.def, it->second.def) << fname;
    }
    ASSERT_EQ(before.symmetric.size(), after.symmetric.size());
    for (std::size_t i = 0; i < before.symmetric.size(); ++i) {
      EXPECT_EQ(before.symmetric[i].decl, after.symmetric[i].decl) << i;
      EXPECT_EQ(before.symmetric[i].slot, after.symmetric[i].slot) << i;
      EXPECT_EQ(before.symmetric[i].lock_id, after.symmetric[i].lock_id)
          << i;
    }
    EXPECT_EQ(before.sym_slot_of_decl, after.sym_slot_of_decl);
  }
}

// -- hash mixing --------------------------------------------------------------

TEST(OptHash, LevelZeroLeavesHashUntouched) {
  EXPECT_EQ(lol::opt::mix_hash(0x1234u, 0), 0x1234u);
}

TEST(OptHash, DistinguishesLevels) {
  std::uint64_t h = 0xdeadbeefu;
  std::uint64_t h1 = lol::opt::mix_hash(h, 1);
  std::uint64_t h2 = lol::opt::mix_hash(h, 2);
  EXPECT_NE(h1, h);
  EXPECT_NE(h1, h2);
  // Deterministic: same inputs, same key.
  EXPECT_EQ(h2, lol::opt::mix_hash(h, 2));
}

}  // namespace
