// lolrun — run a parallel LOLCODE program directly (the in-process
// analogue of `coprsh -np N ./program`):
//
//   lolrun -np 16 nbody.lol
//   lolrun --backend vm --machine epiphany3 --sim -np 16 nbody.lol
#include <cstdio>
#include <iostream>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "core/engine.hpp"
#include "ast/printer.hpp"
#include "driver/cli.hpp"
#include "noc/machines.hpp"
#include "opt/opt.hpp"
#include "parse/parser.hpp"
#include "rt/io.hpp"
#include "support/error.hpp"
#include "vm/compiler.hpp"

namespace {

/// Prints the usage text: to stdout with status 0 for --help, to stderr
/// with status 2 for a bad command line.
int usage(const char* prog, std::FILE* out = stderr) {
  std::fprintf(
      out,
      "usage: %s [options] <program.lol>\n"
      "Numbers are whole decimals; a malformed or out-of-range value or an\n"
      "unknown flag exits 2.\n"
      "  -h, --help         print this text and exit\n"
      "  -np <N>            number of PEs (default 1, max 4096)\n"
      "  --backend <b>      vm (default), interp, or jit (vm + x86-64\n"
      "                     regions; plain vm elsewhere). For the paper's\n"
      "                     C translation, build an executable with lcc\n"
      "  --executor <e>     thread (default), pool, or fiber — fiber\n"
      "                     multiplexes many virtual PEs per core, so -np\n"
      "                     can go far beyond the host's hardware threads\n"
      "  --pes-per-thread <K>  fiber executor: virtual PEs per carrier\n"
      "                     thread (default auto)\n"
      "  --barrier-radix <R>  combining-tree barrier fan-in (default auto;\n"
      "                     results are identical for every radix)\n"
      "  --heap-bytes <B>   symmetric heap per PE (default 1 MiB, max 1 GiB)\n"
      "  --seed <S>         WHATEVR/WHATEVAR seed\n"
      "  --max-steps <S>    per-PE step budget, 0 = unlimited (default)\n"
      "  --machine <m>      epiphany3 | xc40 | smp: enable simulated time\n"
      "  --sim              print per-run simulated time (needs --machine)\n"
      "  --record <file>    serialize the gang on a deterministic schedule\n"
      "                     and write the trace to <file>\n"
      "  --replay <file>    re-run a recorded trace; byte-identical across\n"
      "                     backends and executors (exit 6 on divergence)\n"
      "  --perturb-seed <S> record with a seeded random schedule instead of\n"
      "                     round-robin (used with --record)\n"
      "  --shake <N>        schedule shaker: run once recorded, then under N\n"
      "                     perturbation seeds; exit 4 + failing seed (and\n"
      "                     its trace, with --record) on any output mismatch\n"
      "  --shake-seed <B>   first perturbation seed for --shake (default 1)\n"
      "  --fault <spec>     fault injection: pe=K@step=S (kill a PE),\n"
      "                     noc=F (latency spike, needs --machine),\n"
      "                     input=N (GIMMEH source dies after N reads);\n"
      "                     comma-separated. Killed PE => exit 5\n"
      "  --profile          print a per-PE runtime profile (steps, barrier\n"
      "                     and lock waits, GIMMEH blocks) to stderr\n"
      "  --tag              prefix output lines with [peN]\n"
      "  --no-stdin         do not feed piped stdin to GIMMEH\n"
      "  --opt-level <L>    optimizer level 0 (off), 1 (fold/prop/dce), or\n"
      "                     2 (adds fuse/licm/strength; default)\n"
      "  --jit-dump         --backend jit: hex + annotated dump of emitted\n"
      "                     regions to stderr (same as LOL_JIT_DUMP=1)\n"
      "  --dump-ast         print the (optimized) AST and exit\n"
      "  --dump-bytecode    print compiled bytecode and exit\n",
      prog);
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  lol::driver::Cli cli(argc, argv);
  if (cli.has_flag("--help", "-h")) return usage(argv[0], stdout);
  lol::RunConfig cfg;
  cfg.backend = lol::Backend::kVm;
  cfg.n_pes = cli.number("-np", 1, 1, 4096, "--np");
  cfg.seed = cli.number("--seed", cfg.seed, 0);
  cfg.max_steps = cli.number("--max-steps", cfg.max_steps, 0);
  if (auto backend = cli.option("--backend")) {
    if (auto b = lol::backend_from_name(*backend)) {
      cfg.backend = *b;
    } else {
      std::fprintf(stderr, "lolrun: unknown backend '%s'\n",
                   backend->c_str());
      return 2;
    }
  }
  if (auto executor = cli.option("--executor")) {
    if (auto e = lol::shmem::executor_from_name(*executor)) {
      cfg.executor = *e;
    } else {
      std::fprintf(stderr, "lolrun: unknown executor '%s'\n",
                   executor->c_str());
      return 2;
    }
  }
  cfg.pes_per_thread = cli.number("--pes-per-thread", 0, 0, 4096);
  cfg.barrier_radix = cli.number("--barrier-radix", 0, 0, 4096);
  cfg.heap_bytes = cli.number("--heap-bytes", cfg.heap_bytes, 1, 1u << 30);
  bool want_sim = cli.has_flag("--sim");
  if (auto machine = cli.option("--machine")) {
    cfg.machine = lol::noc::by_name(*machine);
    if (cfg.machine == nullptr) {
      std::fprintf(stderr, "lolrun: unknown machine '%s'\n",
                   machine->c_str());
      return 2;
    }
  }
  // Record/replay + fault injection (src/replay/).
  std::optional<std::string> record_path = cli.option("--record");
  std::optional<std::string> replay_path = cli.option("--replay");
  int shake = cli.number("--shake", 0, 0);
  std::uint64_t shake_seed = cli.number("--shake-seed", std::uint64_t{1}, 0);
  if (auto seed = cli.option("--perturb-seed")) {
    cfg.schedule = lol::replay::ScheduleMode::kPerturb;
    cfg.perturb_seed = cli.checked_number("--perturb-seed", *seed, 0);
  } else if (record_path) {
    cfg.schedule = lol::replay::ScheduleMode::kRecord;
  }
  if (replay_path) {
    if (record_path || shake != 0 ||
        cfg.schedule == lol::replay::ScheduleMode::kPerturb) {
      std::fprintf(stderr,
                   "lolrun: --replay excludes --record/--shake/--perturb-seed\n");
      return 2;
    }
    auto text = lol::driver::read_file(*replay_path);
    if (!text) {
      std::fprintf(stderr, "lolrun: cannot read trace '%s'\n",
                   replay_path->c_str());
      return 2;
    }
    std::string terr;
    auto trace = lol::replay::Trace::parse(*text, &terr);
    if (!trace) {
      std::fprintf(stderr, "lolrun: bad trace '%s': %s\n",
                   replay_path->c_str(), terr.c_str());
      return 2;
    }
    cfg.schedule = lol::replay::ScheduleMode::kReplay;
    cfg.replay_trace = std::make_shared<lol::replay::Trace>(std::move(*trace));
  }
  if (auto spec = cli.option("--fault")) {
    std::string ferr;
    if (!lol::replay::parse_fault_spec(*spec, &cfg.fault, &ferr)) {
      std::fprintf(stderr, "lolrun: %s\n", ferr.c_str());
      return 2;
    }
  }
  bool profile = cli.has_flag("--profile");
  cfg.profile = profile;
  bool tag = cli.has_flag("--tag");
  bool no_stdin = cli.has_flag("--no-stdin");
  bool dump_ast = cli.has_flag("--dump-ast");
  bool dump_bc = cli.has_flag("--dump-bytecode");
  lol::CompileOptions copts;
  copts.opt_level = cli.number("--opt-level", copts.opt_level, 0, 2);
  if (cli.has_flag("--jit-dump")) {
#if !defined(_WIN32)
    ::setenv("LOL_JIT_DUMP", "1", 1);  // read by the JIT build path
#endif
  }

  // GIMMEH reads the real stdin whenever input is piped/redirected, the
  // same behavior lcc-compiled executables always had (an interactive
  // terminal still gets the no-input default — a REPL-style prompt is a
  // different feature). --no-stdin restores the old drop-it behavior.
  lol::rt::StdinInput stdin_input;
#if !defined(_WIN32)
  if (!no_stdin && isatty(0) == 0) cfg.input = &stdin_input;
#else
  (void)no_stdin;
#endif

  const auto& pos = cli.positional();
  if (pos.size() != 1) return usage(argv[0]);

  auto source = lol::driver::read_file(pos[0]);
  if (!source) {
    std::fprintf(stderr, "lolrun: cannot read '%s'\n", pos[0].c_str());
    return 1;
  }

  // Replay traces must distinguish the optimized shape that actually ran
  // (the passes change step-count footers); -O0 keeps the historical
  // plain source hash.
  cfg.program_hash =
      lol::opt::mix_hash(lol::replay::fnv1a(*source), copts.opt_level);

  try {
    lol::CompiledProgram prog = lol::compile(*source, copts);
    if (dump_ast) {
      std::cout << lol::ast::dump(prog.program) << "\n";
      return 0;
    }
    if (dump_bc) {
      std::cout << lol::vm::disassemble(
          lol::vm::compile_program(prog.program, prog.analysis));
      return 0;
    }
    if (shake > 0) {
      // Schedule shaker: one recorded baseline, then `shake` perturbed
      // runs. Any divergence in output/status is a real schedule
      // sensitivity (a race, a missing HUGZ); the failing seed's trace
      // is the repro artifact.
      lol::RunConfig scfg = cfg;
      scfg.sink = nullptr;  // capture per-PE output for comparison
      scfg.schedule = lol::replay::ScheduleMode::kRecord;
      scfg.perturb_seed = 0;
      lol::RunResult base = lol::run(prog, scfg);
      std::fprintf(stderr, "[shake] baseline: %s\n",
                   base.ok ? "ok" : base.first_error().c_str());
      for (int k = 0; k < shake; ++k) {
        const std::uint64_t s = shake_seed + static_cast<std::uint64_t>(k);
        scfg.schedule = lol::replay::ScheduleMode::kPerturb;
        scfg.perturb_seed = s;
        lol::RunResult r = lol::run(prog, scfg);
        if (r.ok == base.ok && r.step_limited == base.step_limited &&
            r.pe_output == base.pe_output && r.pe_errout == base.pe_errout) {
          std::fprintf(stderr, "[shake] seed %llu: ok\n",
                       static_cast<unsigned long long>(s));
          continue;
        }
        std::fprintf(stderr,
                     "[shake] seed %llu DIVERGED from the recorded baseline\n",
                     static_cast<unsigned long long>(s));
        for (std::size_t i = 0;
             i < r.pe_output.size() && i < base.pe_output.size(); ++i) {
          if (base.pe_output[i] != r.pe_output[i]) {
            std::fprintf(stderr, "[shake]   pe%zu stdout differs\n", i);
          }
          if (base.pe_errout[i] != r.pe_errout[i]) {
            std::fprintf(stderr, "[shake]   pe%zu stderr differs\n", i);
          }
        }
        if (!r.ok) {
          std::fprintf(stderr, "[shake]   error: %s\n",
                       r.first_error().c_str());
        }
        if (record_path) {
          if (lol::driver::write_file(*record_path, r.schedule_trace)) {
            std::fprintf(stderr, "[shake]   trace written to %s\n",
                         record_path->c_str());
          } else {
            std::fprintf(stderr, "[shake]   cannot write trace to %s\n",
                         record_path->c_str());
          }
        }
        std::fprintf(
            stderr,
            "[shake] reproduce with: lolrun --perturb-seed %llu "
            "--record t.trace %s; lolrun --replay t.trace %s\n",
            static_cast<unsigned long long>(s), pos[0].c_str(),
            pos[0].c_str());
        return 4;
      }
      std::fprintf(stderr, "[shake] %d seeds, no divergence\n", shake);
      return 0;
    }

    lol::rt::StdioSink sink(tag);
    cfg.sink = &sink;
    lol::RunResult result = lol::run(prog, cfg);
    if (record_path && !result.schedule_trace.empty()) {
      if (!lol::driver::write_file(*record_path, result.schedule_trace)) {
        std::fprintf(stderr, "lolrun: cannot write trace to '%s'\n",
                     record_path->c_str());
        return 1;
      }
    }
    if (profile) {
      // Profile goes to stderr even for failed runs: a step-limited job
      // is exactly when the per-PE step counts matter.
      std::fprintf(stderr,
                   "[profile] claim=%.3fms exec=%.3fms\n"
                   "[profile] %6s %12s %10s %12s %8s %10s %8s\n",
                   result.claim_ms, result.exec_ms, "pe", "steps",
                   "barriers", "barrier_ms", "locks", "lock_ms", "gimmeh");
      for (std::size_t i = 0; i < result.pe_profiles.size(); ++i) {
        const lol::obs::PeProfile& p = result.pe_profiles[i];
        std::fprintf(stderr,
                     "[profile] %6zu %12llu %10llu %12.3f %8llu %10.3f"
                     " %8llu\n",
                     i, static_cast<unsigned long long>(p.steps),
                     static_cast<unsigned long long>(p.barrier_crossings),
                     static_cast<double>(p.barrier_wait_ns) / 1e6,
                     static_cast<unsigned long long>(p.lock_acquires),
                     static_cast<double>(p.lock_wait_ns) / 1e6,
                     static_cast<unsigned long long>(p.gimmeh_blocks));
      }
    }
    if (!result.ok) {
      for (const auto& e : result.errors) {
        if (!e.empty()) std::fprintf(stderr, "error: %s\n", e.c_str());
      }
      // Exit-status parity with lcc-compiled executables: 3 = killed by
      // the step budget, 5 = fault injection killed a PE, 6 = replay
      // diverged, 1 = ordinary runtime failure.
      if (result.pe_failed) return 5;
      if (result.replay_diverged) return 6;
      return result.step_limited ? 3 : 1;
    }
    if (want_sim && cfg.machine != nullptr) {
      std::fprintf(stderr, "[sim] machine=%s modeled time=%.1f ns\n",
                   cfg.machine->name().c_str(), result.max_sim_ns());
    }
    return 0;
  } catch (const lol::support::LolError& e) {
    std::fprintf(stderr, "lolrun: %s: %s\n", pos[0].c_str(), e.what());
    return 1;
  }
}
