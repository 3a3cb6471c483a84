// End-to-end tests of the paper's toolchain (§VI.E): lcc translates
// LOLCODE to C, the host C compiler builds it against the lolrt runtime,
// and the executable runs SPMD with -np N — exactly the
// `lcc code.lol -o executable.x && coprsh -np 16 ./executable.x` flow.
// The C path's differential check lives here too: the example corpus and
// the §VI listings must print, per PE, exactly what the VM prints.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/paper_programs.hpp"
#include "driver/cli.hpp"

#ifndef LCC_BIN
#define LCC_BIN "lcc"
#endif
#ifndef LOL_EXAMPLES_DIR
#define LOL_EXAMPLES_DIR "examples/lol"
#endif

namespace {

struct CmdResult {
  int status = -1;
  std::string output;  // stdout only
};

CmdResult run_cmd(const std::string& cmd) {
  CmdResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  r.status = pclose(pipe);
  return r;
}

std::string temp_dir() {
  static std::string dir = [] {
    std::string tmpl = "/tmp/parallol_e2e_XXXXXX";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s", tmpl.c_str());
    char* made = mkdtemp(buf);
    return std::string(made != nullptr ? made : "/tmp");
  }();
  return dir;
}

/// Compiles `src` with lcc (plus `lcc_args`); returns the quoted
/// executable path, or "" after recording the lcc failure.
std::string build(const std::string& name, const std::string& src,
                  const std::string& lcc_args = "") {
  std::string dir = temp_dir();
  std::string lol_path = dir + "/" + name + ".lol";
  std::string exe_path = dir + "/" + name + ".x";
  EXPECT_TRUE(lol::driver::write_file(lol_path, src));
  CmdResult r = run_cmd(std::string(LCC_BIN) + " '" + lol_path + "' -o '" +
                        exe_path + "' " + lcc_args + " 2>&1");
  EXPECT_EQ(r.status, 0) << "lcc failed:\n" << r.output;
  return r.status == 0 ? "'" + exe_path + "'" : "";
}

/// Compiles `src` with lcc and runs the result with `-np n_pes`.
CmdResult compile_and_run(const std::string& name, const std::string& src,
                          int n_pes, const std::string& extra_args = "") {
  std::string exe = build(name, src);
  if (exe.empty()) return {};
  return run_cmd(exe + " -np " + std::to_string(n_pes) + " " + extra_args +
                 " 2>/dev/null");
}

/// Groups `--tag` output ("[peN] line") back into per-PE streams.
std::vector<std::string> split_tagged(const std::string& out, int n_pes) {
  std::vector<std::string> per_pe(static_cast<std::size_t>(n_pes));
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t close = line.find("] ");
    int pe = -1;
    if (line.rfind("[pe", 0) == 0 && close != std::string::npos) {
      pe = std::atoi(line.c_str() + 3);
    }
    if (pe < 0 || pe >= n_pes) {
      ADD_FAILURE() << "untagged output line: " << line;
      continue;
    }
    per_pe[static_cast<std::size_t>(pe)] += line.substr(close + 2) + "\n";
  }
  return per_pe;
}

TEST(LccE2E, HelloWorld) {
  auto r = compile_and_run("hello",
                           "HAI 1.2\nVISIBLE \"HAI WORLD!\"\nKTHXBYE\n", 1);
  EXPECT_EQ(r.status, 0);
  EXPECT_EQ(r.output, "HAI WORLD!\n");
}

TEST(LccE2E, EmitCProducesCompilableSource) {
  std::string dir = temp_dir();
  std::string lol_path = dir + "/emit.lol";
  std::string c_path = dir + "/emit.c";
  ASSERT_TRUE(lol::driver::write_file(
      lol_path, "HAI 1.2\nVISIBLE SUM OF 1 AN 2\nKTHXBYE\n"));
  auto r = run_cmd(std::string(LCC_BIN) + " '" + lol_path + "' --emit-c -o '" +
                   c_path + "' 2>&1");
  ASSERT_EQ(r.status, 0) << r.output;
  auto c = lol::driver::read_file(c_path);
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(c->find("lol_user_main"), std::string::npos);
}

TEST(LccE2E, SpmdVisibleRunsOnEveryPe) {
  auto r = compile_and_run(
      "spmd", "HAI 1.2\nVISIBLE \"PE \" ME \" OF \" MAH FRENZ\nKTHXBYE\n", 4);
  EXPECT_EQ(r.status, 0);
  // Output interleaving across PEs is unspecified; count the lines.
  int lines = 0;
  for (char ch : r.output) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
  EXPECT_NE(r.output.find("OF 4"), std::string::npos);
}

// The C translation is a differential column of its own: every corpus
// program and §VI listing, compiled once, must print per PE exactly what
// the VM prints, at 1 and at 4 PEs (paper_examples_test pins the VM's
// values for the listings).
TEST(LccE2E, CorpusAndListingsMatchVmPerPe) {
  std::vector<std::pair<std::string, std::string>> programs;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(LOL_EXAMPLES_DIR)) {
    if (e.path().extension() == ".lol") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no .lol programs under " << LOL_EXAMPLES_DIR;
  for (const auto& f : files) {
    auto text = lol::driver::read_file(f.string());
    ASSERT_TRUE(text.has_value()) << f;
    programs.emplace_back(f.stem().string(), *text);
  }
  programs.emplace_back("paper_ring", lol::paper::ring_listing());
  programs.emplace_back("paper_locks", lol::paper::lock_counter_listing(25));
  programs.emplace_back("paper_bsum", lol::paper::barrier_sum_listing());
  programs.emplace_back("paper_nbody", lol::paper::nbody_program(8, 3, true));

  for (const auto& [name, src] : programs) {
    std::string exe = build("diff_" + name, src);
    if (exe.empty()) continue;
    auto prog = lol::compile(src);
    for (int n_pes : {1, 4}) {
      SCOPED_TRACE(name + " at -np " + std::to_string(n_pes));
      lol::RunConfig cfg;
      cfg.n_pes = n_pes;
      cfg.backend = lol::Backend::kVm;
      auto vm = lol::run(prog, cfg);
      ASSERT_TRUE(vm.ok) << vm.first_error();
      auto r = run_cmd(exe + " -np " + std::to_string(n_pes) +
                       " --tag </dev/null 2>/dev/null");
      ASSERT_EQ(r.status, 0);
      EXPECT_EQ(split_tagged(r.output, n_pes), vm.pe_output);
    }
  }
}

TEST(LccE2E, RuntimeErrorsExitNonZero) {
  std::string exe =
      build("bad", "HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN 0\nKTHXBYE\n");
  ASSERT_FALSE(exe.empty());
  auto run = run_cmd(exe + " 2>&1");
  EXPECT_NE(run.status, 0);
  EXPECT_NE(run.output.find("division by zero"), std::string::npos);
}

// A private array whose size is not positive fails with the VM's error
// and exit status 1, whether or not the optimizer sees the size.
TEST(LccE2E, NonPositiveArraySizeFailsLikeTheVm) {
  for (const char* n : {"0", "-3"}) {
    for (const char* level : {"0", "2"}) {
      SCOPED_TRACE(std::string("n = ") + n + " at -O" + level);
      const std::string src = std::string("HAI 1.2\nI HAS A n ITZ ") + n +
                              "\nI HAS A a ITZ LOTZ A NUMBRS AN THAR IZ n\n"
                              "VISIBLE \"DUN\"\nKTHXBYE\n";
      std::string exe = build(std::string("size") + level + "_" + n, src,
                              std::string("--opt-level ") + level);
      ASSERT_FALSE(exe.empty());
      auto run = run_cmd(exe + " 2>&1");
      ASSERT_TRUE(WIFEXITED(run.status));
      EXPECT_EQ(WEXITSTATUS(run.status), 1) << run.output;
      const std::string want =
          std::string("array size must be positive, got ") + n;
      EXPECT_NE(run.output.find(want), std::string::npos) << run.output;
      EXPECT_EQ(run.output.find("DUN"), std::string::npos) << run.output;

      lol::CompileOptions copts;
      copts.opt_level = level[0] - '0';
      lol::RunConfig cfg;
      cfg.backend = lol::Backend::kVm;
      auto vm = lol::run(lol::compile(src, copts), cfg);
      EXPECT_NE(vm.first_error().find(want), std::string::npos)
          << vm.first_error();
    }
  }
}

TEST(LccE2E, StepLimitExitsWithDistinctStatus) {
  // ROADMAP parity item: lcc-generated binaries honor the step budget
  // with an exit status (3) callers can tell apart from runtime errors.
  std::string exe =
      build("spin", "HAI 1.2\nIM IN YR l\nIM OUTTA YR l\nKTHXBYE\n");
  ASSERT_FALSE(exe.empty());

  auto run = run_cmd(exe + " -np 2 --max-steps 10000 2>&1");
  ASSERT_TRUE(WIFEXITED(run.status));
  EXPECT_EQ(WEXITSTATUS(run.status), 3) << run.output;
  EXPECT_NE(run.output.find("step budget"), std::string::npos) << run.output;

  // A generous budget on a terminating program exits 0.
  std::string ok_exe =
      build("okstep", "HAI 1.2\nVISIBLE \"DUN\"\nKTHXBYE\n");
  ASSERT_FALSE(ok_exe.empty());
  auto ok = run_cmd(ok_exe + " --max-steps 100000 2>&1");
  EXPECT_EQ(ok.status, 0) << ok.output;
}

TEST(LccE2E, PipedStdinFeedsGimmeh) {
  std::string exe = build(
      "gimmeh_pipe",
      "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE \"GOT \" x\nKTHXBYE\n");
  ASSERT_FALSE(exe.empty());
  auto piped = run_cmd("printf 'cheezburger\\n' | " + exe);
  EXPECT_EQ(piped.status, 0);
  EXPECT_NE(piped.output.find("GOT cheezburger"), std::string::npos)
      << piped.output;
}

TEST(LccE2E, CompileErrorsAreReported) {
  std::string dir = temp_dir();
  std::string lol_path = dir + "/syntax.lol";
  ASSERT_TRUE(lol::driver::write_file(lol_path, "HAI 1.2\nx R\nKTHXBYE\n"));
  auto r = run_cmd(std::string(LCC_BIN) + " '" + lol_path + "' -o /tmp/x 2>&1");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("expected"), std::string::npos);
}

}  // namespace
