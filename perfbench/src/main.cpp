// perfbench: the job-level benchmark program for PARALLOL.
//
// Drives one workload's seeded jobs through lol::service::Service from
// closed-loop client threads in this process (a client submits its next
// job only when the previous result has arrived), checks every job's
// per-PE stdout against the interpreter backend's output for the same
// program, n_pes and seed, and prints a one-line JSON report last.
//
//   perfbench --workload classroom --seed 7 --seconds 20 \
//             --examples examples/lol [--traced] [--setup-only] \
//             [--trace-out FILE] [--commit ID]
//
// Modes:
//   default       set-up (Service construction plus one warm-up job per
//                 distinct job shape), then `--seconds` of closed-loop
//                 jobs; reports the end-to-end metrics
//   --traced      the same job list, with spans recorded around calls
//                 into each layer's public functions: the job's compile
//                 is composed from lex/parse/sema/opt/vm/jit calls in the
//                 order lol::compile makes them, a Runtime is constructed
//                 alone, the program is handed to lol::run with
//                 RunConfig::profile, and then the job goes through
//                 Service::submit_job, whose JobResult::trace supplies the
//                 queued/compile/claim/run/drain phases; reports the
//                 per-layer metrics
//   --setup-only  set-up alone; reports setup_s
//
// Exit status: 0 when every job succeeded with the expected output and
// the workload's shape checks hold, 1 when not, 2 on a usage error or a
// broken benchmark input.
#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codegen/jit_backend.hpp"
#include "core/engine.hpp"
#include "lex/lexer.hpp"
#include "obs/metrics.hpp"
#include "opt/opt.hpp"
#include "parse/parser.hpp"
#include "sema/analyzer.hpp"
#include "service/service.hpp"
#include "shmem/runtime.hpp"
#include "tracer.hpp"
#include "vm/compiler.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using lol::service::JobResult;
using lol::service::JobStatus;
using lol::service::Service;

using Output = std::vector<std::string>;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string examples = "examples/lol";
  std::string trace_out;
  std::string commit = "unknown";
  bool traced = false;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S]\n"
               "                 [--examples DIR] [--traced] [--setup-only]\n"
               "                 [--trace-out FILE] [--commit ID]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--examples") {
        a.examples = value();
      } else if (flag == "--trace-out") {
        a.trace_out = value();
      } else if (flag == "--commit") {
        a.commit = value();
      } else if (flag == "--traced") {
        a.traced = true;
      } else if (flag == "--setup-only") {
        a.setup_only = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad number for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Reference outputs: the tree-walking interpreter on the unoptimized
// program, computed for every distinct (program, n_pes, seed, executor)
// before the timed phase. A job's per-PE stdout is kept as one 64-bit
// FNV-1a digest, so even fresh_compile's one-reference-per-job list
// stays small.
// ---------------------------------------------------------------------------

using Digest = std::uint64_t;

Digest digest(const Output& out) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](unsigned char ch) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  };
  for (const auto& pe : out) {
    for (unsigned char ch : pe) add(ch);
    add(0xff);  // PE separator; the byte never occurs in UTF-8 text
  }
  return h;
}

Digest reference_digest(const lol::service::Job& job) {
  lol::CompileOptions co;
  co.opt_level = 0;
  const lol::CompiledProgram prog = lol::compile(job.source, co);
  lol::RunConfig cfg;
  cfg.n_pes = job.n_pes;
  cfg.backend = lol::Backend::kInterp;
  cfg.seed = job.seed;
  cfg.heap_bytes = job.heap_bytes;
  cfg.executor = job.executor;
  cfg.pes_per_thread = job.pes_per_thread;
  cfg.max_steps = lol::service::ServiceOptions{}.default_max_steps;
  const lol::RunResult r = lol::run(prog, cfg);
  if (!r.ok) {
    throw std::runtime_error("reference run of " + job.name +
                             " failed: " + r.first_error());
  }
  return digest(r.pe_output);
}

/// Expected outputs for every client's first `per_client` jobs. A warm
/// workload's streams repeat its mix, so each distinct mix entry is
/// computed once; a fresh workload's jobs are all distinct and are
/// regenerated from (seed, client, index) instead of being stored.
class Expected {
 public:
  Expected(const Workload& w, std::size_t per_client, int threads)
      : w_(w), per_client_(per_client) {
    std::vector<std::pair<int, std::size_t>> todo;  // (client, j) per slot
    if (w.fresh) {
      for (std::size_t j = 0; j < per_client; ++j) {
        for (int k = 0; k < w.clients; ++k) todo.emplace_back(k, j);
      }
    } else {
      std::map<std::pair<std::string, std::string>, std::size_t> seen;
      for (const auto& bj : w.mix) {
        const auto& j = bj.job;
        std::string knobs = std::to_string(j.n_pes) + ',' + std::to_string(j.seed) + ',' +
                            std::to_string(static_cast<int>(j.executor)) + ',' +
                            std::to_string(j.pes_per_thread) + ',' +
                            std::to_string(j.heap_bytes);
        auto [it, added] = seen.try_emplace({j.source, std::move(knobs)}, todo.size());
        if (added) todo.emplace_back(-1, slot_of_.size());
        slot_of_.push_back(it->second);
      }
    }
    digests_.resize(todo.size());
    std::atomic<std::size_t> next{0};
    std::mutex err_m;
    std::string err;
    auto worker = [&] {
      for (std::size_t s; (s = next.fetch_add(1)) < todo.size();) {
        const auto [k, j] = todo[s];
        try {
          digests_[s] = reference_digest(k < 0 ? w.mix[j].job : w.job(k, j).job);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> g(err_m);
          if (err.empty()) err = e.what();
        }
      }
    };
    std::vector<std::thread> pool;
    const auto n_threads = std::clamp<std::size_t>(static_cast<std::size_t>(threads), 1, todo.size());
    for (std::size_t t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    if (!err.empty()) throw std::runtime_error(err);
  }

  /// Whether client job `j` has a reference (warm streams never run out).
  [[nodiscard]] bool covers(std::size_t j) const { return !w_.fresh || j < per_client_; }

  [[nodiscard]] Digest of(int client, std::size_t j) const {
    if (w_.fresh) return digests_[j * static_cast<std::size_t>(w_.clients) + static_cast<std::size_t>(client)];
    return digests_[slot_of_[w_.mix_index(client, j)]];
  }

  [[nodiscard]] std::size_t size() const { return digests_.size(); }

 private:
  const Workload& w_;
  std::size_t per_client_;
  std::vector<std::size_t> slot_of_;  // warm: mix index -> digest slot
  std::vector<Digest> digests_;
};

/// Empty when `out` matches the reference; otherwise why not.
std::string mismatch(const Output& out, Digest want) {
  return digest(out) == want ? "" : "per-PE stdout differs from the interpreter's";
}

// ---------------------------------------------------------------------------
// Set-up: Service construction plus the first compile and first run of
// every distinct job shape, the cost a daemon pays once per start.
// ---------------------------------------------------------------------------

struct SetUp {
  std::unique_ptr<Service> svc;
  double seconds = 0.0;
  double mean_warm_job_ms = 0.0;
};

SetUp set_up(const Workload& w) {
  SetUp s;
  const auto t0 = Clock::now();
  s.svc = std::make_unique<Service>(w.service);
  double job_ms = 0.0;
  for (const auto& bj : w.warmup) {
    const auto tj = Clock::now();
    JobResult r = s.svc->submit_job(bj.job).result.get();
    job_ms += ms_since(tj);
    if (!r.ok()) {
      throw std::runtime_error("warm-up job '" + bj.shape + "' failed (" +
                               lol::service::to_string(r.status) +
                               "): " + r.error);
    }
  }
  s.seconds = ms_since(t0) / 1000.0;
  s.mean_warm_job_ms = job_ms / static_cast<double>(std::max<std::size_t>(1, w.warmup.size()));
  return s;
}

// ---------------------------------------------------------------------------
// Process-wide engine counters, read as deltas around a phase.
// ---------------------------------------------------------------------------

struct Counters {
  double jit_compiles = 0, spec_ops = 0, deopts = 0, threads_created = 0,
         fiber_switches = 0;

  static Counters read() {
    auto& reg = lol::obs::Registry::global();
    auto v = [&](const char* name) {
      return static_cast<double>(reg.counter(name, "").value());
    };
    return {v("lol_jit_compiles_total"), v("lol_jit_specialized_ops_total"),
            v("lol_jit_deopts_total"), v("lol_executor_threads_created_total"),
            v("lol_fiber_switches_total")};
  }
  Counters operator-(const Counters& o) const {
    return {jit_compiles - o.jit_compiles, spec_ops - o.spec_ops,
            deopts - o.deopts, threads_created - o.threads_created,
            fiber_switches - o.fiber_switches};
  }
};

// ---------------------------------------------------------------------------
// Per-client tallies.
// ---------------------------------------------------------------------------

/// Per-layer figures of the traced run, keyed by metric name: per-job
/// values summed (reported as means) or kept whole (reported as medians).
struct LayerTally {
  std::map<std::string, double> sum;
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t jobs = 0, jit_jobs = 0;

  [[nodiscard]] double mean(const std::string& key, std::uint64_t n) const {
    auto it = sum.find(key);
    return it == sum.end() || n == 0 ? 0.0 : it->second / static_cast<double>(n);
  }
  [[nodiscard]] double p50(const std::string& key) const {
    auto it = samples.find(key);
    return it == samples.end() ? 0.0 : percentile(it->second, 0.5);
  }
  void merge(const LayerTally& o) {
    for (const auto& [k, v] : o.sum) sum[k] += v;
    for (const auto& [k, v] : o.samples) samples[k].insert(samples[k].end(), v.begin(), v.end());
    jobs += o.jobs;
    jit_jobs += o.jit_jobs;
  }
};

struct Tally {
  struct Done {
    double at_s = 0.0;    // completion time, seconds into the phase
    double job_ms = 0.0;  // submit to result
    bool ok = false;      // kOk with the expected output
  };
  std::vector<Done> done;
  std::uint64_t attempted = 0, failed = 0, cache_hits = 0;
  double compile_claim_ms = 0.0;  // service compile + claim spans
  std::vector<std::string> failures;  // the first few, for the log
  LayerTally layers;
  /// Per job shape: job, compile, claim and run times (ms), for the log.
  std::map<std::string, std::array<std::vector<double>, 4>> by_shape;

  void fail(const std::string& shape, const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(shape + ": " + why);
  }
  void merge(const Tally& o) {
    done.insert(done.end(), o.done.begin(), o.done.end());
    attempted += o.attempted;
    failed += o.failed;
    cache_hits += o.cache_hits;
    compile_claim_ms += o.compile_claim_ms;
    for (const auto& f : o.failures) {
      if (failures.size() < 5) failures.push_back(f);
    }
    layers.merge(o.layers);
    for (const auto& [shape, cols] : o.by_shape) {
      auto& dst = by_shape[shape];
      for (std::size_t c = 0; c < cols.size(); ++c) {
        dst[c].insert(dst[c].end(), cols[c].begin(), cols[c].end());
      }
    }
  }
};

/// Scores one Service result: status, output, and the phase spans.
void score(const JobResult& r, double job_ms, double at_s, const BenchJob& bj,
           Digest want, Tally& t) {
  ++t.attempted;
  const std::uint64_t failed_before = t.failed;
  if (r.compile_cache_hit) ++t.cache_hits;
  auto& cols = t.by_shape[bj.shape];
  cols[0].push_back(job_ms);
  for (const auto& s : r.trace) {
    const bool compile = s.name.rfind("compile", 0) == 0;
    if (compile || s.name == "claim") t.compile_claim_ms += s.dur_ms;
    if (compile) cols[1].push_back(s.dur_ms);
    if (s.name == "claim") cols[2].push_back(s.dur_ms);
    if (s.name == "run") cols[3].push_back(s.dur_ms);
  }
  if (r.status != JobStatus::kOk) {
    t.fail(bj.shape, std::string(lol::service::to_string(r.status)) + ": " + r.error);
  } else if (std::string why = mismatch(r.pe_output, want); !why.empty()) {
    t.fail(bj.shape, why);
  }
  t.done.push_back({at_s, job_ms, t.failed == failed_before});
}

/// End-to-end figures of the timed phase. The phase is cut into
/// `windows` equal windows by completion time; each reported figure is
/// the median of the per-window figures, so a burst of host noise in one
/// window does not move it.
struct Figures {
  double p50 = 0.0, p99 = 0.0, per_s = 0.0;
};

struct EndToEnd {
  Figures median;
  std::vector<Figures> windows;
};

EndToEnd end_to_end(const std::vector<Tally::Done>& done, double wall_s, int windows) {
  const auto n = static_cast<std::size_t>(std::max(1, windows));
  const double len = wall_s / static_cast<double>(n);
  std::vector<std::vector<double>> ms(n);
  std::vector<double> ok(n, 0.0);
  for (const auto& d : done) {
    const auto k = std::min(n - 1, static_cast<std::size_t>(d.at_s / len));
    ms[k].push_back(d.job_ms);
    ok[k] += d.ok ? 1.0 : 0.0;
  }
  EndToEnd e;
  std::vector<double> p50s, p99s, rates;
  for (std::size_t k = 0; k < n; ++k) {
    e.windows.push_back({percentile(ms[k], 0.50), percentile(ms[k], 0.99), ok[k] / len});
    p50s.push_back(e.windows.back().p50);
    p99s.push_back(e.windows.back().p99);
    rates.push_back(e.windows.back().per_s);
  }
  e.median = {percentile(p50s, 0.5), percentile(p99s, 0.5), percentile(rates, 0.5)};
  return e;
}

/// The RunConfig the Service builds for `job` (default caps, no tuner).
lol::RunConfig service_run_config(const lol::service::Job& job,
                                  const lol::service::ServiceOptions& so) {
  lol::RunConfig cfg;
  cfg.n_pes = std::clamp(job.n_pes, 1, std::max(1, so.max_pes));
  cfg.backend = job.backend;
  cfg.seed = job.seed;
  cfg.max_steps = job.max_steps == 0 ? so.default_max_steps : job.max_steps;
  cfg.heap_bytes = so.heap_bytes_cap != 0
                       ? std::min(job.heap_bytes, so.heap_bytes_cap)
                       : job.heap_bytes;
  cfg.executor = job.executor;
  cfg.pes_per_thread = job.pes_per_thread;
  cfg.barrier_radix = job.barrier_radix;
  return cfg;
}

/// Runs `fn` inside a span; returns the span's duration in ms.
template <typename F>
double in_span(Tracer& tr, const char* name, std::uint64_t id, int parent, F&& fn) {
  const int s = tr.begin(name, id, parent);
  fn();
  tr.end(s);
  return tr.spans()[static_cast<std::size_t>(s)].dur_ms();
}

/// One traced job: the composed compile, a lone Runtime construction,
/// a direct lol::run, then the same job through the Service. Returns the
/// Service result and sets `job_ms` to its submit-to-result time.
JobResult traced_job(Service& svc, const BenchJob& bj, std::uint64_t id,
                     Digest want, Tracer& tr, Tally& t,
                     double* job_ms) {
  LayerTally& L = t.layers;
  const auto& job = bj.job;
  const lol::RunConfig base_cfg = service_run_config(job, svc.options());
  const int root = tr.begin("job", id);

  // Compile, in lol::compile's order, with the Service's options.
  const int c = tr.begin("compile", id, root);
  lol::CompiledProgram prog;
  // parse::parse_program(source) is Parser(lex::tokenize(source))
  // .parse_program(); making the lexing a child span gives the parser's
  // self time with lexing excluded.
  const int ps = tr.begin("parse.parse_program", id, c);
  std::vector<lol::lex::Token> tokens;
  L.sum["lex.ms"] += in_span(tr, "lex.tokenize", id, ps,
                             [&] { tokens = lol::lex::tokenize(job.source); });
  L.sum["lex.tokens"] += static_cast<double>(tokens.size());
  prog.program = lol::parse::Parser(std::move(tokens)).parse_program();
  tr.end(ps);
  L.sum["parse.ms"] += tr.self_ms(ps);
  L.sum["sema.ms"] += in_span(tr, "sema.analyze", id, c,
                              [&] { prog.analysis = lol::sema::analyze(prog.program); });
  lol::opt::Options oo;
  oo.level = prog.options.opt_level;
  oo.unroll_max_trip = prog.options.unroll_max_trip;
  lol::opt::Stats ost;
  L.sum["opt.ms"] += in_span(tr, "opt.optimize", id, c,
                             [&] { lol::opt::optimize(prog.program, oo, &ost); });
  L.sum["opt.rewrites"] += static_cast<double>(ost.total());
  L.sum["sema.reanalyze_ms"] += in_span(tr, "sema.reanalyze", id, c, [&] {
    prog.analysis = lol::sema::analyze(prog.program);
  });
  std::shared_ptr<const lol::vm::Chunk> chunk;
  L.sum["vm.lower_ms"] += in_span(tr, "vm.compile_program", id, c, [&] {
    chunk = std::make_shared<const lol::vm::Chunk>(
        lol::vm::compile_program(prog.program, prog.analysis));
  });
  L.sum["vm.chunk_instrs"] += static_cast<double>(chunk->code.size());
  prog.vm_slot = std::make_shared<lol::vm::VmSlot>();
  prog.vm_slot->chunk = chunk;
  prog.jit_slot = std::make_shared<lol::codegen::JitSlot>();
  if (job.backend == lol::Backend::kJit) {
    std::string err;
    std::shared_ptr<const lol::codegen::JitProgram> jit;
    L.sum["jit.emit_ms"] += in_span(tr, "jit.get_or_build", id, c, [&] {
      jit = lol::codegen::JitProgram::get_or_build(chunk, &err);
    });
    if (jit == nullptr) throw std::runtime_error("jit emit failed: " + err);
    L.sum["jit.code_bytes"] += static_cast<double>(jit->code_bytes());
    ++L.jit_jobs;
    prog.jit_slot->prog = std::move(jit);
  }
  tr.end(c);

  // Runtime (symmetric heaps, barrier tree, locks) built alone.
  lol::shmem::Config scfg;
  scfg.n_pes = base_cfg.n_pes;
  scfg.heap_bytes = base_cfg.heap_bytes;
  scfg.n_locks = prog.analysis.lock_count;
  scfg.barrier_radix = base_cfg.barrier_radix;
  if (job.executor != lol::shmem::ExecutorKind::kThread) {
    scfg.executor = lol::shmem::make_executor(job.executor, job.pes_per_thread);
  }
  std::optional<lol::shmem::Runtime> runtime;
  L.samples["shmem.runtime_ctor_ms"].push_back(
      in_span(tr, "shmem.runtime_ctor", id, root, [&] { runtime.emplace(scfg); }));
  runtime.reset();

  // Direct run with wait-time profiling.
  lol::RunConfig cfg = base_cfg;
  cfg.profile = true;
  lol::RunResult rr;
  in_span(tr, "lol.run", id, root, [&] { rr = lol::run(prog, cfg); });
  for (const auto& p : rr.pe_profiles) {
    L.sum["shmem.barrier_wait_ms"] += static_cast<double>(p.barrier_wait_ns) / 1e6;
    L.sum["shmem.barrier_crossings"] += static_cast<double>(p.barrier_crossings);
    L.sum["shmem.lock_wait_ms"] += static_cast<double>(p.lock_wait_ns) / 1e6;
    L.sum["shmem.lock_contended"] += static_cast<double>(p.lock_contended);
  }
  if (!rr.ok) {
    t.fail(bj.shape, "direct lol::run: " + rr.first_error());
  } else if (std::string why = mismatch(rr.pe_output, want); !why.empty()) {
    t.fail(bj.shape, "direct lol::run: " + why);
  }

  // The same job through the Service; its phases become child spans.
  const int sv = tr.begin("service.submit_job", id, root);
  JobResult r = svc.submit_job(job).result.get();
  tr.end(sv);
  const Span svc_span = tr.spans()[static_cast<std::size_t>(sv)];
  for (const auto& ph : r.trace) {
    const double start = svc_span.start_ms + ph.start_ms;
    tr.add("service." + ph.name, id, sv, start, start + ph.dur_ms);
    if (ph.name == "queued") L.samples["service.queue_ms"].push_back(ph.dur_ms);
    if (ph.name == "claim") L.samples["engine.claim_ms"].push_back(ph.dur_ms);
    if (ph.name == "run") L.samples["engine.exec_ms"].push_back(ph.dur_ms);
  }
  L.samples["service.dispatch_ms"].push_back(tr.self_ms(sv));
  tr.end(root);
  ++L.jobs;
  *job_ms = svc_span.dur_ms();
  return r;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

class Report {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') q += '\\';
      q += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    field(key, q + "\"");
  }
  void boolean(const std::string& key, bool v) { field(key, v ? "true" : "false"); }
  void raw(const std::string& key, const std::string& json) { field(key, json); }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
  }
  std::string body_;
};

std::string context_json(const Args& a) {
  Report c;
  c.str("workload", a.workload);
  c.num("seed", static_cast<double>(a.seed));
  c.num("seconds", a.seconds);
  c.str("build_type", PERFBENCH_BUILD_TYPE);
  c.str("compiler", PERFBENCH_COMPILER);
  c.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  c.str("commit", a.commit);
  c.str("jit", lol::codegen::jit_available() ? "available" : "unavailable");
  return c.json();
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.examples);
  SetUp su = set_up(w);
  Report rep;
  if (a.setup_only) {
    su.svc.reset();
    rep.str("mode", "setup");
    rep.num("setup_s", su.seconds);
    std::printf("%s\n", rep.json().c_str());
    return 0;
  }

  // References for each distinct job of a warm workload's mix, or for
  // enough never-seen programs to fill the timed phase: twice what the
  // warm-up's per-job time predicts.
  std::size_t per_client = 0;
  if (w.fresh) {
    const double per_s = 1000.0 / std::max(0.05, su.mean_warm_job_ms);
    per_client = std::min<std::size_t>(static_cast<std::size_t>(2.0 * per_s * a.seconds) + 32, 100000);
  }
  const int ref_threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()) - 1, 1, 3);
  const auto t_ref = Clock::now();
  const Expected expected(w, per_client, w.fresh ? ref_threads : 1);
  const double ref_s = ms_since(t_ref) / 1000.0;

  // peak_rss_mb is the timed phase's peak: hand the freed memory of the
  // reference runs back to the kernel, then restart its high-water mark
  // (Linux /proc/self/clear_refs). Where that is refused, the figure
  // stays the whole process's peak, and the log says so.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  bool rss_reset = false;
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    rss_reset = std::fputs("5", f) >= 0;
    rss_reset = std::fclose(f) == 0 && rss_reset;
  }

  // Timed phase: closed-loop clients.
  Service& svc = *su.svc;
  const Counters c0 = Counters::read();
  std::atomic<bool> exhausted{false};
  const auto epoch = Clock::now();
  const auto deadline = epoch + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(a.seconds));
  std::vector<Tally> tallies(static_cast<std::size_t>(w.clients));
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (int k = 0; k < w.clients; ++k) tracers.push_back(std::make_unique<Tracer>(epoch));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(w.clients));
  auto client = [&](int k) {
    Tally& t = tallies[static_cast<std::size_t>(k)];
    try {
      for (std::size_t j = 0; Clock::now() < deadline; ++j) {
        if (!expected.covers(j)) {
          exhausted = true;
          break;
        }
        const BenchJob bj = w.job(k, j);
        const Digest want = expected.of(k, j);
        const std::uint64_t i = j * static_cast<std::uint64_t>(w.clients) + static_cast<std::uint64_t>(k);
        double job_ms = 0.0;
        JobResult r;
        if (a.traced) {
          r = traced_job(svc, bj, i, want, *tracers[static_cast<std::size_t>(k)], t, &job_ms);
        } else {
          lol::service::Job job = bj.job;
          const auto t0 = Clock::now();
          r = svc.submit_job(std::move(job)).result.get();
          job_ms = ms_since(t0);
        }
        score(r, job_ms, ms_since(epoch) / 1000.0, bj, want, t);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(k)] = std::current_exception();
    }
  };
  std::vector<std::thread> clients;
  for (int k = 0; k < w.clients; ++k) clients.emplace_back(client, k);
  for (auto& th : clients) th.join();
  const double wall_s = ms_since(epoch) / 1000.0;
  const Counters dc = Counters::read() - c0;
  su.svc.reset();  // drains and joins the workers
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  Tally t;
  for (const auto& x : tallies) t.merge(x);
  const double jobs = static_cast<double>(t.attempted);
  const double hit_ratio = jobs > 0 ? static_cast<double>(t.cache_hits) / jobs : 0.0;
  std::vector<double> all_ms;
  for (const auto& d : t.done) all_ms.push_back(d.job_ms);
  const double job_ms_sum = std::accumulate(all_ms.begin(), all_ms.end(), 0.0);
  const EndToEnd e2e = end_to_end(t.done, wall_s, w.windows);
  const double compile_claim_share = job_ms_sum > 0 ? t.compile_claim_ms / job_ms_sum : 0.0;
  const double jit_per_job = jobs > 0 ? dc.jit_compiles / jobs : 0.0;

  // Shape checks: the workload must exercise what it claims to.
  std::vector<std::string> shape_errors;
  if (t.attempted == 0) shape_errors.push_back("no job completed");
  if (w.name == "classroom" && hit_ratio < 0.99) {
    shape_errors.push_back("compile-cache hit ratio " + std::to_string(hit_ratio) + " < 0.99");
  }
  if (w.fresh) {
    if (t.cache_hits != 0) {
      shape_errors.push_back(std::to_string(t.cache_hits) + " compile-cache hits, want 0");
    }
    if (dc.jit_compiles != jobs) {
      shape_errors.push_back("lol_jit_compiles_total rose by " + std::to_string(dc.jit_compiles) +
                             " over " + std::to_string(t.attempted) + " jobs, want one per job");
    }
  }
  if (w.name == "spmd_kernels" && compile_claim_share >= 0.05) {
    shape_errors.push_back("compile+claim take " + std::to_string(100 * compile_claim_share) +
                           "% of job time, want < 5%");
  }
  const bool correct = t.failed == 0 && shape_errors.empty();

  std::printf("# %s seed=%llu %s: %llu jobs in %.2f s (%llu failed), set-up %.3f s, "
              "references %.2f s for %zu programs\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.traced ? "traced" : "timed", static_cast<unsigned long long>(t.attempted), wall_s,
              static_cast<unsigned long long>(t.failed), su.seconds, ref_s, expected.size());
  std::printf("# job_ms p50=%.4f p99=%.4f (n=%zu)  cache_hit_ratio=%.4f  "
              "compile+claim share=%.4f  jit compiles/job=%.3f\n",
              percentile(all_ms, 0.50), percentile(all_ms, 0.99), all_ms.size(), hit_ratio,
              compile_claim_share, jit_per_job);
  {
    // Completions per second of the phase: a stall or a noisy neighbour
    // shows up here as a dip.
    std::vector<int> per_s(static_cast<std::size_t>(std::ceil(wall_s)) + 1, 0);
    for (const auto& d : t.done) ++per_s[static_cast<std::size_t>(d.at_s)];
    std::string line;
    for (int c : per_s) line += " " + std::to_string(c);
    std::printf("# jobs per second:%s\n", line.c_str());
    line.clear();
    for (const auto& x : e2e.windows) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " [p50 %.4f p99 %.4f %.1f/s]", x.p50, x.p99, x.per_s);
      line += buf;
    }
    std::printf("# %zu windows:%s\n", e2e.windows.size(), line.c_str());
  }
  if (!rss_reset) {
    std::printf("# warning: cannot reset the RSS high-water mark; peak_rss_mb covers the "
                "whole process\n");
  }
  if (exhausted) {
    std::printf("# warning: the pre-generated job list ran out before --seconds elapsed\n");
  }
  if (t.attempted < 1000) {
    std::printf("# warning: %llu jobs; p99 wants at least 1000\n",
                static_cast<unsigned long long>(t.attempted));
  }
  for (const auto& [shape, cols] : t.by_shape) {
    std::printf("#   %-28s n=%-6zu job p50=%.3f p99=%.3f  compile p50=%.3f  claim p50=%.3f  "
                "run p50=%.3f ms\n",
                shape.c_str(), cols[0].size(), percentile(cols[0], 0.5), percentile(cols[0], 0.99),
                percentile(cols[1], 0.5), percentile(cols[2], 0.5), percentile(cols[3], 0.5));
  }
  for (const auto& f : t.failures) std::printf("# failed job %s\n", f.c_str());
  for (const auto& e : shape_errors) std::printf("# shape check failed: %s\n", e.c_str());

  Report m;
  m.num("job_ms.p50", e2e.median.p50);
  m.num("job_ms.p99", e2e.median.p99);
  m.num("jobs_per_s", e2e.median.per_s);
  m.num("setup_s", su.seconds);
  m.num("peak_rss_mb", peak_rss_mb());
  m.num("service.cache_hit_ratio", hit_ratio);
  m.num("service.compile_claim_share", compile_claim_share);
  m.num("jit.compiles_per_job", jit_per_job);
  if (a.traced) {
    const LayerTally& L = t.layers;
    for (const char* k : {"service.queue_ms", "service.dispatch_ms"}) {
      m.num(std::string(k) + ".p50", L.p50(k));
    }
    for (const char* k : {"lex.ms", "lex.tokens", "parse.ms", "sema.ms", "sema.reanalyze_ms",
                          "opt.ms", "opt.rewrites", "vm.lower_ms", "vm.chunk_instrs"}) {
      m.num(k, L.mean(k, L.jobs));
    }
    for (const char* k : {"jit.emit_ms", "jit.code_bytes"}) m.num(k, L.mean(k, L.jit_jobs));
    // Counter deltas cover both executions of a traced job (the direct
    // lol::run and the Service's run).
    const double nj = static_cast<double>(std::max<std::uint64_t>(1, L.jobs));
    m.num("jit.spec_ops", dc.spec_ops / nj);
    m.num("jit.deopts", dc.deopts / nj);
    for (const char* k : {"shmem.runtime_ctor_ms", "engine.claim_ms", "engine.exec_ms"}) {
      m.num(std::string(k) + ".p50", L.p50(k));
    }
    for (const char* k : {"shmem.barrier_wait_ms", "shmem.barrier_crossings",
                          "shmem.lock_wait_ms", "shmem.lock_contended"}) {
      m.num(k, L.mean(k, L.jobs));
    }
    m.num("executor.threads_created", dc.threads_created / nj);
    m.num("executor.fiber_switches", dc.fiber_switches / nj);
    if (!a.trace_out.empty()) {
      if (std::FILE* f = std::fopen(a.trace_out.c_str(), "w")) {
        for (std::size_t k = 0; k < tracers.size(); ++k) {
          tracers[k]->write_jsonl(f, static_cast<int>(k));
        }
        std::fclose(f);
      } else {
        std::printf("# warning: cannot write %s\n", a.trace_out.c_str());
      }
    }
  }

  rep.str("mode", a.traced ? "traced" : "timed");
  rep.boolean("correct", correct);
  rep.num("attempted", jobs);
  rep.num("failed", static_cast<double>(t.failed));
  rep.raw("metrics", m.json());
  rep.raw("context", context_json(a));
  std::printf("%s\n", rep.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Pin glibc's allocator in the state a warmed-up daemon reaches.
  // Left dynamic, glibc raises its mmap threshold (and, with it, the
  // trim threshold) each time a larger mapped chunk is freed, so whether
  // a job's symmetric heap is recycled arena memory or a fresh,
  // page-faulted mapping depends on allocation history: classroom runs
  // flipped between about 1200 and 2000 jobs/s within one process.
  // Pinned at the ceiling glibc's own adjustment can reach (32 MiB, trim
  // at twice that), every heap this benchmark's jobs ask for is
  // recycled.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
