#include "workloads.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/paper_programs.hpp"

namespace perfbench {

namespace {

using lol::Backend;
using lol::shmem::ExecutorKind;

/// splitmix64: a portable, fully specified generator, so a seed picks
/// the same job list on every standard library.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Fisher-Yates over indices [0, n) driven by splitmix64 from `key`.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t key) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::uint64_t s = key;
  for (std::size_t i = n; i > 1; --i) {
    s = splitmix(s);
    std::swap(p[i - 1], p[s % i]);
  }
  return p;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read corpus file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Replaces the single occurrence of `from`; a corpus edit that removes
/// or duplicates the anchor must fail loudly, not change the workload.
std::string replace_once(const std::string& src, const std::string& from,
                         const std::string& to) {
  const auto pos = src.find(from);
  if (pos == std::string::npos || src.find(from, pos + 1) != std::string::npos) {
    throw std::runtime_error("variant anchor not found exactly once: " + from);
  }
  std::string out = src;
  out.replace(pos, from.size(), to);
  return out;
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to, int expect) {
  int n = 0;
  for (std::size_t pos = 0; (pos = s.find(from, pos)) != std::string::npos;
       pos += to.size(), ++n) {
    s.replace(pos, from.size(), to);
  }
  if (n != expect) {
    throw std::runtime_error("expected " + std::to_string(expect) +
                             " occurrences of: " + from);
  }
  return s;
}

/// The four programs of examples/lol, pinned by name so that a new file
/// in the corpus does not silently change the workloads.
const char* const kCorpus[] = {"heat_1d", "hello_team", "pi_monte_carlo",
                               "quickstart"};

struct Program {
  std::string name;
  std::string source;
};

std::vector<Program> corpus_and_listings(const std::string& examples_dir) {
  std::vector<Program> out;
  for (const char* name : kCorpus) {
    out.push_back({name, read_file(examples_dir + "/" + name + ".lol")});
  }
  out.push_back({"ring", lol::paper::ring_listing()});
  out.push_back({"lock_counter", lol::paper::lock_counter_listing()});
  out.push_back({"barrier_sum", lol::paper::barrier_sum_listing()});
  return out;
}

/// heat_1d scaled to `cells` interior cells per PE and `steps` steps.
std::string scaled_heat(const std::string& heat_src, int cells, int steps) {
  std::string s = replace_all(heat_src, "THAR IZ 10",
                              "THAR IZ " + std::to_string(cells + 2), 2);
  s = replace_once(s, "I HAS A lastcell ITZ A NUMBR AN ITZ 8",
                   "I HAS A lastcell ITZ A NUMBR AN ITZ " +
                       std::to_string(cells));
  return replace_once(s, "TIL BOTH SAEM t AN 5",
                      "TIL BOTH SAEM t AN " + std::to_string(steps));
}

/// §VI.C's put + HUGZ exchange (Figure 2) repeated for `rounds` rounds.
/// The put into neighbour k's `b` in round r+1 follows a HUGZ that k
/// can only reach after reading `b` for round r, so the program is
/// race-free and its output deterministic.
std::string put_hugz_loop(int rounds) {
  return "HAI 1.2\n"
         "BTW paper SVI.C put + HUGZ exchange, repeated\n"
         "WE HAS A a ITZ SRSLY A NUMBR\n"
         "WE HAS A b ITZ SRSLY A NUMBR\n"
         "I HAS A k ITZ A NUMBR AN ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
         "I HAS A c ITZ A NUMBR AN ITZ 0\n"
         "IM IN YR rounds UPPIN YR r TIL BOTH SAEM r AN " +
         std::to_string(rounds) +
         "\n"
         "  a R SUM OF PRODUKT OF ME AN 10 AN r\n"
         "  HUGZ\n"
         "  TXT MAH BFF k, UR b R MAH a\n"
         "  HUGZ\n"
         "  c R SUM OF c AN SUM OF a AN b\n"
         "IM OUTTA YR rounds\n"
         "VISIBLE \"PE \" ME \" C IZ \" c\n"
         "KTHXBYE\n";
}

BenchJob make_job(const std::string& program, const std::string& source,
                  int n_pes, Backend backend, std::uint64_t seed) {
  BenchJob j;
  j.shape = program + " np" + std::to_string(n_pes) + " " +
            lol::to_string(backend);
  j.job.name = program;
  j.job.source = source;
  j.job.n_pes = n_pes;
  j.job.backend = backend;
  j.job.seed = seed;
  return j;  // pool executor and 1 MiB heap: the Job defaults
}

/// Distinct-shape warm-up list: the first job of each shape in `jobs`.
std::vector<BenchJob> first_of_each_shape(const std::vector<BenchJob>& jobs) {
  std::vector<BenchJob> out;
  for (const auto& j : jobs) {
    bool seen = false;
    for (const auto& o : out) seen = seen || o.shape == j.shape;
    if (!seen) out.push_back(j);
  }
  return out;
}

/// Per-program textual variant for fresh_compile: each anchor holds a
/// literal that reaches the bytecode's constant pool, so the variant
/// differs from every other one in its chunk bytes (the JIT cache key),
/// not just in its source text.
struct Variant {
  std::string anchor;
  std::string (*make)(std::uint64_t salt);
};

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string pad9(std::uint64_t v) {
  std::string s = std::to_string(v % 1000000000ULL);
  return std::string(9 - s.size(), '0') + s;
}

const Variant* variant_for(const std::string& program) {
  static const std::pair<const char*, Variant> kVariants[] = {
      {"heat_1d",
       {"u'Z 5 R 100.0",
        [](std::uint64_t s) { return "u'Z 5 R " + num(100 + s) + ".0"; }}},
      {"hello_team",
       {"\" SEZ O HAI\"",
        [](std::uint64_t s) { return "\" SEZ O HAI #" + num(s) + "\""; }}},
      {"pi_monte_carlo",
       {"\"PI IZ KINDA \"",
        [](std::uint64_t s) { return "\"PI #" + num(s) + " IZ KINDA \""; }}},
      {"quickstart",
       {"\" FRENZ CHECKED IN. KTHXBYE!\"",
        [](std::uint64_t s) {
          return "\" FRENZ CHECKED IN #" + num(s) + ". KTHXBYE!\"";
        }}},
      {"ring",
       {"PRODUKT OF pe AN 1000 AN i",
        [](std::uint64_t s) { return "PRODUKT OF pe AN " + num(1000 + s) + " AN i"; }}},
      {"lock_counter",
       {"\"KOUNTER IZ \"",
        [](std::uint64_t s) { return "\"KOUNTER #" + num(s) + " IZ \""; }}},
      {"barrier_sum",
       {"PRODUKT OF ME AN 10 AN 1",
        [](std::uint64_t s) { return "PRODUKT OF ME AN 10 AN " + num(1 + s); }}},
      {"nbody",
       {"AN ITZ 0.001",
        [](std::uint64_t s) { return "AN ITZ 0.001" + pad9(s); }}},
  };
  for (const auto& [name, v] : kVariants) {
    if (program == name) return &v;
  }
  return nullptr;
}

// Sizes of the fresh_compile n-body variant and of the spmd_kernels
// programs. Each spmd kernel stays far inside the service's default
// 50M-step budget.
constexpr int kFreshNbodyParticles = 8;
constexpr int kFreshNbodySteps = 2;
constexpr int kKernelNbodyParticles = 32;
constexpr int kKernelNbodySteps = 10;
constexpr int kKernelHeatCells = 128;
constexpr int kKernelHeatSteps = 60;
constexpr int kKernelPutHugzPes = 256;
constexpr int kKernelPutHugzRounds = 400;
constexpr int kKernelPutHugzCarriers = 2;
constexpr std::size_t kKernelPutHugzHeap = 64 << 10;

Workload classroom(std::uint64_t seed, const std::string& examples_dir) {
  Workload w;
  w.clients = 2;
  w.service.workers = 2;
  w.windows = 5;  // about 9000 jobs per 5 s window
  const std::uint64_t job_seeds[] = {splitmix(seed ^ 1) % 1000000,
                                     splitmix(seed ^ 2) % 1000000};
  std::vector<BenchJob> all;
  for (const auto& p : corpus_and_listings(examples_dir)) {
    const int n_pes = p.name == "heat_1d" ? 16 : 4;
    for (Backend b : {Backend::kVm, Backend::kJit}) {
      for (std::uint64_t s : job_seeds) {
        all.push_back(make_job(p.name, p.source, n_pes, b, s));
      }
    }
  }
  w.warmup = first_of_each_shape(all);
  w.mix = std::move(all);
  return w;
}

Workload fresh_compile(std::uint64_t seed, const std::string& examples_dir) {
  Workload w;
  w.clients = 2;
  w.service.workers = 2;
  w.windows = 5;  // about 4000 jobs per 5 s window
  w.fresh = true;
  auto programs = corpus_and_listings(examples_dir);
  programs.push_back({"nbody", lol::paper::nbody_program(kFreshNbodyParticles,
                                                         kFreshNbodySteps,
                                                         true)});
  for (const auto& p : programs) {
    w.mix.push_back(make_job(p.name, p.source, 1, Backend::kJit, splitmix(seed) % 1000000));
    // Fail at construction, not mid-run, when an anchor is missing.
    const Variant* v = variant_for(p.name);
    if (v == nullptr) throw std::runtime_error("no variant for " + p.name);
    (void)replace_once(p.source, v->anchor, v->make(0));
  }
  w.warmup = w.mix;
  return w;
}

Workload spmd_kernels(std::uint64_t seed, const std::string& examples_dir) {
  Workload w;
  w.clients = 1;
  w.service.workers = 1;
  w.service.max_pes = kKernelPutHugzPes;
  const std::uint64_t job_seed = splitmix(seed ^ 3) % 1000000;
  const std::string nbody =
      lol::paper::nbody_program(kKernelNbodyParticles, kKernelNbodySteps, true);
  const std::string heat =
      scaled_heat(read_file(examples_dir + "/heat_1d.lol"), kKernelHeatCells,
                  kKernelHeatSteps);
  const std::string put_hugz = put_hugz_loop(kKernelPutHugzRounds);
  // Per backend: 2 n-body, 9 heat and 1 put+HUGZ job. The mix keeps
  // the mean job near 17 ms, so a 25 s run holds well over 1000 jobs,
  // and keeps the fiber job's heap-bound claim (about 3.5 ms for 256 x
  // 64 KiB heaps) to a few percent of the workload's job time.
  std::vector<BenchJob> all;
  for (Backend b : {Backend::kVm, Backend::kJit}) {
    for (int k = 0; k < 2; ++k) all.push_back(make_job("nbody", nbody, 2, b, job_seed));
    for (int k = 0; k < 9; ++k) all.push_back(make_job("heat_scaled", heat, 2, b, job_seed));
    BenchJob f = make_job("put_hugz", put_hugz, kKernelPutHugzPes, b, job_seed);
    f.shape += " fiber";
    f.job.executor = ExecutorKind::kFiber;
    f.job.pes_per_thread = kKernelPutHugzPes / kKernelPutHugzCarriers;
    f.job.heap_bytes = kKernelPutHugzHeap;
    all.push_back(f);
  }
  w.warmup = first_of_each_shape(all);
  w.mix = std::move(all);
  return w;
}

}  // namespace

std::size_t Workload::mix_index(int client, std::size_t j) const {
  const std::size_t n = mix.size();
  const std::uint64_t block = j / n;
  return permutation(n, splitmix(seed ^ splitmix(static_cast<std::uint64_t>(client) << 32 ^ block)))[j % n];
}

BenchJob Workload::job(int client, std::size_t j) const {
  BenchJob bj = mix[mix_index(client, j)];
  if (!fresh) return bj;
  // The salt is unique per job within a process, differs by seed, and is
  // never 0, which would reproduce the unsalted warm-up program.
  const std::uint64_t index = j * static_cast<std::uint64_t>(clients) +
                              static_cast<std::uint64_t>(client);
  const std::uint64_t salt = (seed % 1000) * 1000000 + index + 1;
  const Variant* v = variant_for(bj.job.name);
  bj.job.source = replace_once(bj.job.source, v->anchor, v->make(salt));
  bj.job.seed = splitmix(seed ^ (index << 8)) % 1000000;
  return bj;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& examples_dir) {
  Workload w;
  if (name == "classroom") {
    w = classroom(seed, examples_dir);
  } else if (name == "fresh_compile") {
    w = fresh_compile(seed, examples_dir);
  } else if (name == "spmd_kernels") {
    w = spmd_kernels(seed, examples_dir);
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  w.name = name;
  w.seed = seed;
  return w;
}

}  // namespace perfbench
