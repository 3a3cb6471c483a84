#include "diff_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>

#include "codegen/jit_backend.hpp"
#include "core/abort.hpp"
#include "driver/cli.hpp"
#include "support/error.hpp"

namespace lol::difftest {

namespace fs = std::filesystem;

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kCompileError: return "compile-error";
    case Outcome::kRuntimeError: return "runtime-error";
    case Outcome::kStepLimit: return "step-limit";
    case Outcome::kAborted: return "aborted";
  }
  return "?";
}

bool jit_available() { return codegen::jit_available(); }

std::vector<Backend> backends_under_test() {
  std::vector<Backend> out = {Backend::kInterp, Backend::kVm};
  if (jit_available()) out.push_back(Backend::kJit);
  return out;
}

std::vector<shmem::ExecutorKind> executors_under_test() {
  std::vector<shmem::ExecutorKind> out = {shmem::ExecutorKind::kThread,
                                          shmem::ExecutorKind::kPool};
  if (shmem::fiber_executor_available()) {
    out.push_back(shmem::ExecutorKind::kFiber);
  }
  return out;
}

const char* backend_label(Backend b) { return lol::to_string(b); }

BackendRun run_one(const Spec& spec, Backend backend,
                   shmem::ExecutorKind executor) {
  BackendRun out;
  out.backend = backend;
  out.executor = executor;
  out.label =
      std::string(backend_label(backend)) + "/" + shmem::to_string(executor);

  // Resolve the optimization level: explicit spec value, else the
  // LOL_OPT_LEVEL environment override (the CI opt-matrix leg), else
  // the default -O2.
  CompileOptions copts;
  if (spec.opt_level >= 0) {
    copts.opt_level = spec.opt_level;
  } else if (const char* env = std::getenv("LOL_OPT_LEVEL");
             env != nullptr && env[0] != '\0') {
    copts.opt_level = std::atoi(env);
  }

  CompiledProgram prog;
  try {
    prog = compile(spec.source, copts);
  } catch (const support::LolError& e) {
    out.outcome = Outcome::kCompileError;
    out.error = e.what();
    return out;
  }

  RunConfig cfg;
  cfg.n_pes = spec.n_pes;
  cfg.backend = backend;
  cfg.seed = spec.seed;
  cfg.max_steps = spec.max_steps;
  cfg.stdin_lines = spec.stdin_lines;
  cfg.executor = executor;
  cfg.pes_per_thread = spec.pes_per_thread;
  cfg.heap_bytes = spec.heap_bytes;
  cfg.barrier_radix = spec.barrier_radix;
  // CI exports the variable (possibly empty) on every matrix leg. Only
  // a non-empty value overrides, and only for specs that left the radix
  // at auto — a spec naming an explicit radix is testing that radix
  // (BarrierRadixIsOutputInvariant must not collapse to a tautology in
  // the radix-override leg).
  if (const char* env = std::getenv("LOL_BARRIER_RADIX");
      env != nullptr && env[0] != '\0' && spec.barrier_radix == 0) {
    cfg.barrier_radix = std::atoi(env);
  }

  // Mid-run abort: fire the token from a timer thread, like the
  // service's deadline reaper does. The thread always joins before the
  // result is read.
  AbortToken token;
  std::thread timer;
  if (spec.abort_after_ms > 0) {
    cfg.abort = &token;
    timer = std::thread([&] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(spec.abort_after_ms));
      token.request();
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  RunResult r = run(prog, cfg);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (timer.joinable()) timer.join();

  out.pe_output = std::move(r.pe_output);
  out.pe_errout = std::move(r.pe_errout);
  out.error = r.first_error();
  if (r.step_limited) {
    out.outcome = Outcome::kStepLimit;
  } else if (r.aborted) {
    out.outcome = Outcome::kAborted;
  } else if (r.ok) {
    out.outcome = Outcome::kOk;
  } else {
    out.outcome = Outcome::kRuntimeError;
  }
  return out;
}

namespace {

/// Output comparison applies only to runs that completed: a killed run
/// (step limit, abort) stops PEs at backend-dependent points, so partial
/// output legitimately differs.
bool compare_output(Outcome o) { return o == Outcome::kOk; }

void describe(std::ostringstream& os, const Spec& spec,
              const BackendRun& r) {
  os << "  [" << r.label << "] outcome=" << to_string(r.outcome);
  if (!r.error.empty()) os << " error=\"" << r.error << "\"";
  os << "\n";
  if (compare_output(r.outcome)) {
    for (std::size_t pe = 0; pe < r.pe_output.size(); ++pe) {
      os << "    pe" << pe << " stdout: "
         << (r.pe_output[pe].size() > 200
                 ? r.pe_output[pe].substr(0, 200) + "..."
                 : r.pe_output[pe])
         << "\n";
    }
  }
  (void)spec;
}

}  // namespace

std::string divergence(const Spec& spec) {
  std::vector<BackendRun> runs;
  runs.reserve(6);
  for (Backend b : backends_under_test()) {
    for (shmem::ExecutorKind e : executors_under_test()) {
      runs.push_back(run_one(spec, b, e));
    }
  }

  const BackendRun& ref = runs.front();
  bool diverged = false;
  std::ostringstream why;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const BackendRun& r = runs[i];
    if (r.outcome != ref.outcome) {
      diverged = true;
      why << "classification differs: " << ref.label << "="
          << to_string(ref.outcome) << " vs " << r.label << "="
          << to_string(r.outcome) << "\n";
      continue;
    }
    if (!compare_output(ref.outcome)) continue;
    if (r.pe_output != ref.pe_output) {
      diverged = true;
      why << "per-PE stdout differs between " << ref.label << " and "
          << r.label << "\n";
    }
    if (r.pe_errout != ref.pe_errout) {
      diverged = true;
      why << "per-PE stderr differs between " << ref.label << " and "
          << r.label << "\n";
    }
  }
  if (!diverged) return "";

  std::ostringstream os;
  os << "spec '" << spec.name << "' (n_pes=" << spec.n_pes
     << ", seed=" << spec.seed << ", max_steps=" << spec.max_steps
     << ") diverged:\n"
     << why.str();
  for (const BackendRun& r : runs) describe(os, spec, r);
  return os.str();
}

std::vector<Spec> load_lol_dir(const std::string& dir, int n_pes) {
  std::vector<Spec> out;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return out;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".lol") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& p : files) {
    auto text = driver::read_file(p.string());
    if (!text) continue;
    Spec s;
    s.name = p.filename().string();
    s.source = std::move(*text);
    s.n_pes = n_pes;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace lol::difftest
