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
#include "opt/tuner.hpp"
#include "parse/parser.hpp"
#include "rt/io.hpp"
#include "support/error.hpp"
#include "vm/compiler.hpp"

namespace {

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] <program.lol>\n"
      "  -np <N>            number of PEs (default 1, max 4096)\n"
      "  --backend <b>      vm (default), interp, native (host cc + dlopen),\n"
      "                     or jit (vm + x86-64 regions; plain vm elsewhere)\n"
      "  --executor <e>     thread (default), pool, or fiber — fiber\n"
      "                     multiplexes many virtual PEs per core, so -np\n"
      "                     can go far beyond the host's hardware threads\n"
      "  --pes-per-thread <K>  fiber executor: virtual PEs per carrier\n"
      "                     thread (default auto)\n"
      "  --barrier-radix <R>  combining-tree barrier fan-in (default auto;\n"
      "                     results are identical for every radix)\n"
      "  --heap-bytes <B>   symmetric heap per PE (default 1 MiB; large -np\n"
      "                     runs want this smaller)\n"
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
      "  --tune             run short calibration runs, print the chosen\n"
      "                     runtime knobs, and persist them (--tuner-cache)\n"
      "  --tuner-cache <f>  tuned-knob store: with --tune, where to\n"
      "                     persist the winner (default .lol_tuner_cache);\n"
      "                     without it, apply the stored runtime knobs to\n"
      "                     this run\n"
      "  --jit-dump         --backend jit: hex + annotated dump of emitted\n"
      "                     regions to stderr (same as LOL_JIT_DUMP=1)\n"
      "  --dump-ast         print the (optimized) AST and exit\n"
      "  --dump-bytecode    print compiled bytecode and exit\n",
      prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lol::driver::Cli cli(argc, argv);
  lol::RunConfig cfg;
  cfg.backend = lol::Backend::kVm;
  cfg.n_pes = std::atoi(cli.option("-np", "--np").value_or("1").c_str());
  if (auto seed = cli.option("--seed")) {
    cfg.seed = std::strtoull(seed->c_str(), nullptr, 10);
  }
  if (auto steps = cli.option("--max-steps")) {
    cfg.max_steps = std::strtoull(steps->c_str(), nullptr, 10);
  }
  if (auto backend = cli.option("--backend")) {
    if (auto b = lol::backend_from_name(*backend)) {
      cfg.backend = *b;
    } else {
      std::fprintf(stderr, "lolrun: unknown backend '%s'\n",
                   backend->c_str());
      return 2;
    }
  }
  // Cli::option consumes its match, so presence must be captured at the
  // parse site — a later re-query would always come back empty (and the
  // tuner apply path below needs to know which flags were explicit).
  auto executor_flag = cli.option("--executor");
  if (executor_flag) {
    if (auto e = lol::shmem::executor_from_name(*executor_flag)) {
      cfg.executor = *e;
    } else {
      std::fprintf(stderr, "lolrun: unknown executor '%s'\n",
                   executor_flag->c_str());
      return 2;
    }
  }
  auto ppt_flag = cli.option("--pes-per-thread");
  if (ppt_flag) cfg.pes_per_thread = std::atoi(ppt_flag->c_str());
  auto radix_flag = cli.option("--barrier-radix");
  if (radix_flag) cfg.barrier_radix = std::atoi(radix_flag->c_str());
  if (auto heap = cli.option("--heap-bytes")) {
    cfg.heap_bytes = static_cast<std::size_t>(
        std::strtoull(heap->c_str(), nullptr, 10));
  }
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
  int shake = 0;
  if (auto s = cli.option("--shake")) shake = std::atoi(s->c_str());
  std::uint64_t shake_seed = 1;
  if (auto s = cli.option("--shake-seed")) {
    shake_seed = std::strtoull(s->c_str(), nullptr, 10);
  }
  if (auto seed = cli.option("--perturb-seed")) {
    cfg.schedule = lol::replay::ScheduleMode::kPerturb;
    cfg.perturb_seed = std::strtoull(seed->c_str(), nullptr, 10);
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
  if (auto lvl = cli.option("--opt-level")) {
    if (lvl->size() != 1 || (*lvl)[0] < '0' || (*lvl)[0] > '2') {
      std::fprintf(stderr, "lolrun: bad --opt-level '%s' (want 0, 1 or 2)\n",
                   lvl->c_str());
      return 2;
    }
    copts.opt_level = (*lvl)[0] - '0';
  }
  bool tune = cli.has_flag("--tune");
  auto tuner_cache_flag = cli.option("--tuner-cache");
  bool have_tuner_cache = tuner_cache_flag.has_value();
  std::string tuner_cache = tuner_cache_flag.value_or(".lol_tuner_cache");
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
  if (pos.size() != 1 || cfg.n_pes < 1) return usage(argv[0]);

  auto source = lol::driver::read_file(pos[0]);
  if (!source) {
    std::fprintf(stderr, "lolrun: cannot read '%s'\n", pos[0].c_str());
    return 1;
  }

  // An explicit --tuner-cache without --tune applies a persisted
  // calibration winner, mirroring the service's warm-hit path: explicit
  // flags always win, record/replay never tunes (traces are
  // schedule-shape-sensitive).
  if (have_tuner_cache && !tune &&
      cfg.schedule == lol::replay::ScheduleMode::kNone) {
    lol::opt::TunerStore store(tuner_cache);
    if (auto k = store.lookup(lol::replay::fnv1a(*source), cfg.n_pes)) {
      if (k->barrier_radix != 0 && !radix_flag) {
        cfg.barrier_radix = k->barrier_radix;
      }
      if (!k->executor.empty() && !executor_flag) {
        if (auto e = lol::shmem::executor_from_name(k->executor)) {
          cfg.executor = *e;
        }
      }
      if (k->pes_per_thread != 0 && !ppt_flag) {
        cfg.pes_per_thread = k->pes_per_thread;
      }
    }
  }

  // Replay traces must distinguish the optimized shape that actually ran
  // (the passes change step-count footers); -O0 keeps the historical
  // plain source hash.
  cfg.program_hash =
      lol::opt::mix_hash(lol::replay::fnv1a(*source), copts.opt_level);

  try {
    lol::CompiledProgram prog = lol::compile(*source, copts);
    if (tune) {
      lol::opt::TunerStore store(tuner_cache);
      lol::opt::TunedKnobs knobs =
          lol::opt::calibrate(prog, *source, cfg.n_pes, &store);
      std::printf("tuned: barrier_radix=%d executor=%s pes_per_thread=%d\n",
                  knobs.barrier_radix,
                  knobs.executor.empty() ? "-" : knobs.executor.c_str(),
                  knobs.pes_per_thread);
      return 0;
    }
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
