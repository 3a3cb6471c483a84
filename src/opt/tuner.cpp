#include "opt/tuner.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "replay/trace.hpp"
#include "rt/io.hpp"
#include "shmem/executor.hpp"

namespace lol::opt {

namespace {

struct Entry {
  std::uint64_t hash = 0;
  int n_pes = 0;
  TunedKnobs knobs;
};

std::vector<Entry> load_entries(const std::string& path) {
  std::vector<Entry> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag, executor;
    Entry e;
    if (!(ls >> tag >> e.hash >> e.n_pes >> e.knobs.barrier_radix >>
          executor >> e.knobs.pes_per_thread)) {
      continue;  // malformed line: skip, don't fail the whole store
    }
    // v2 lines from older stores carry a trailing unroll cap, which no
    // pass reads any more: ignore it.
    if (tag != "v1" && tag != "v2") continue;
    if (executor != "-") e.knobs.executor = executor;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

TunerStore::TunerStore(std::string path) : path_(std::move(path)) {}

std::optional<TunedKnobs> TunerStore::lookup(std::uint64_t program_hash,
                                             int n_pes) const {
  std::lock_guard<std::mutex> g(m_);
  for (const Entry& e : load_entries(path_)) {
    if (e.hash == program_hash && e.n_pes == n_pes) return e.knobs;
  }
  return std::nullopt;
}

void TunerStore::store(std::uint64_t program_hash, int n_pes,
                       const TunedKnobs& k) {
  std::lock_guard<std::mutex> g(m_);
  std::vector<Entry> entries = load_entries(path_);
  bool replaced = false;
  for (Entry& e : entries) {
    if (e.hash == program_hash && e.n_pes == n_pes) {
      e.knobs = k;
      replaced = true;
      break;
    }
  }
  if (!replaced) entries.push_back({program_hash, n_pes, k});
  std::ofstream out(path_, std::ios::trunc);
  for (const Entry& e : entries) {
    out << "v1 " << e.hash << ' ' << e.n_pes << ' '
        << e.knobs.barrier_radix << ' '
        << (e.knobs.executor.empty() ? "-" : e.knobs.executor.c_str())
        << ' ' << e.knobs.pes_per_thread << '\n';
  }
}

namespace {

/// One timed calibration run. Returns wall milliseconds, or a huge value
/// when the configuration failed outright (unavailable executor) so the
/// grid search never picks it.
double timed_run(const CompiledProgram& prog, const RunConfig& base) {
  RunConfig cfg = base;
  cfg.max_steps = 500000;  // terminate hostile/looping programs
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r = run(prog, cfg);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  // Step-limited runs still carry a comparable timing signal (every
  // config does the same capped work); hard failures do not.
  if (!r.ok && !r.step_limited) return 1e18;
  return ms;
}

}  // namespace

TunedKnobs calibrate(const CompiledProgram& prog, std::string_view source,
                     int n_pes, TunerStore* store) {
  rt::CaptureSink devnull(n_pes);  // calibration output is discarded
  RunConfig base;
  base.n_pes = n_pes;
  base.backend = Backend::kVm;
  base.sink = &devnull;

  // Stage 1: barrier radix. Binary tree vs wider fan-in trades tree
  // depth against per-node contention; only measurable with >2 PEs.
  TunedKnobs best;
  double best_ms = timed_run(prog, base);
  if (n_pes > 2) {
    for (int radix : {2, 4}) {
      RunConfig cfg = base;
      cfg.barrier_radix = radix;
      double ms = timed_run(prog, cfg);
      if (ms < best_ms) {
        best_ms = ms;
        best.barrier_radix = radix;
      }
    }
  }
  base.barrier_radix = best.barrier_radix;

  // Stage 2: executor. The pool saves thread spawns for small gangs;
  // fibers win once n_pes outgrows the hardware threads.
  for (shmem::ExecutorKind kind :
       {shmem::ExecutorKind::kPool, shmem::ExecutorKind::kFiber}) {
    RunConfig cfg = base;
    cfg.executor = kind;
    double ms = timed_run(prog, cfg);
    if (ms < best_ms) {
      best_ms = ms;
      best.executor = shmem::to_string(kind);
    }
  }

  // Stage 3: fiber packing, only worth exploring when fibers won.
  if (best.executor == "fiber") {
    if (auto e = shmem::executor_from_name(best.executor)) {
      for (int ppt : {2, 4}) {
        RunConfig cfg = base;
        cfg.executor = *e;
        cfg.pes_per_thread = ppt;
        double ms = timed_run(prog, cfg);
        if (ms < best_ms) {
          best_ms = ms;
          best.pes_per_thread = ppt;
        }
      }
    }
  }

  if (store != nullptr) {
    store->store(replay::fnv1a(source), n_pes, best);
  }
  return best;
}

}  // namespace lol::opt
