// Service-layer tests: compile-cache accounting, concurrent-vs-sequential
// output equivalence, bounded-queue backpressure (both policies),
// step-budget enforcement keeping the pool alive under hostile jobs,
// wall-clock deadlines (spin / GIMMEH-blocked / barrier-wedged jobs),
// cancellation of queued and in-flight jobs, and two-tenant DRR fairness.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "codegen/native_backend.hpp"
#include "core/engine.hpp"
#include "core/paper_programs.hpp"
#include "obs/metrics.hpp"
#include "opt/tuner.hpp"
#include "replay/trace.hpp"
#include "service/compile_cache.hpp"
#include "service/service.hpp"
#include "shmem/executor.hpp"

namespace {

using lol::Backend;
using lol::service::CompileCache;
using lol::service::Job;
using lol::service::JobResult;
using lol::service::JobStatus;
using lol::service::QueueFullPolicy;
using lol::service::Service;
using lol::service::ServiceOptions;

const char* kHello = "HAI 1.2\nVISIBLE \"O HAI\" ME\nKTHXBYE\n";
const char* kSum =
    "HAI 1.2\nI HAS A n ITZ 0\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 200\n"
    "  n R SUM OF n AN i\nIM OUTTA YR l\nVISIBLE n\nKTHXBYE\n";
const char* kSpin = "HAI 1.2\nIM IN YR forever\nIM OUTTA YR forever\nKTHXBYE\n";

Job make_job(std::string name, std::string source, int n_pes,
             Backend backend = Backend::kVm) {
  Job j;
  j.name = std::move(name);
  j.source = std::move(source);
  j.n_pes = n_pes;
  j.backend = backend;
  return j;
}

// ---------------------------------------------------------------------------
// CompileCache
// ---------------------------------------------------------------------------

TEST(CompileCache, HitAndMissAccounting) {
  CompileCache cache(8);
  bool hit = true;
  auto a = cache.get_or_compile(kHello, &hit);
  EXPECT_TRUE(a.ok());
  EXPECT_FALSE(hit);

  auto b = cache.get_or_compile(kHello, &hit);
  EXPECT_TRUE(hit);
  // The same immutable CompiledProgram is shared, not recompiled.
  EXPECT_EQ(a.program.get(), b.program.get());

  cache.get_or_compile(kSum, &hit);
  EXPECT_FALSE(hit);

  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CompileCache, LruEvictionPrefersHotEntries) {
  CompileCache cache(2);
  std::string a = "HAI 1.2\nVISIBLE 1\nKTHXBYE\n";
  std::string b = "HAI 1.2\nVISIBLE 2\nKTHXBYE\n";
  std::string c = "HAI 1.2\nVISIBLE 3\nKTHXBYE\n";
  cache.get_or_compile(a);
  cache.get_or_compile(b);
  cache.get_or_compile(a);  // refresh a: b is now LRU
  cache.get_or_compile(c);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);

  bool hit = false;
  cache.get_or_compile(a, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_compile(b, &hit);  // evicted, so a miss again
  EXPECT_FALSE(hit);
}

TEST(CompileCache, CompileErrorsAreCachedToo) {
  CompileCache cache(4);
  std::string broken = "HAI 1.2\nFOUND YR 1\nKTHXBYE\n";  // sema error
  bool hit = true;
  auto a = cache.get_or_compile(broken, &hit);
  EXPECT_FALSE(hit);
  EXPECT_FALSE(a.ok());
  EXPECT_FALSE(a.error.empty());

  auto b = cache.get_or_compile(broken, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CompileCache, ConcurrentRequestsCompileOnce) {
  CompileCache cache(8);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<const lol::CompiledProgram*> seen(kThreads, nullptr);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      seen[static_cast<std::size_t>(i)] =
          cache.get_or_compile(kSum).program.get();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(i)]);
  }
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(CompileCache, ByteBudgetEvictsBeforeEntryBudget) {
  // Entry capacity 8, but a byte budget sized for roughly two of these
  // sources: memory pressure, not entry count, must drive eviction.
  std::string a = "HAI 1.2\nVISIBLE 1\nKTHXBYE\n";
  std::string b = "HAI 1.2\nVISIBLE 2\nKTHXBYE\n";
  std::string c = "HAI 1.2\nVISIBLE 3\nKTHXBYE\n";
  CompileCache cache(8, CompileCache::charged_bytes(a.size()) * 2 + 64);
  cache.get_or_compile(a);
  cache.get_or_compile(b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.get_or_compile(c);  // over the byte budget: a (LRU) is evicted
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.resident_bytes(), cache.capacity_bytes());

  bool hit = false;
  cache.get_or_compile(c, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_compile(a, &hit);  // evicted earlier, so a miss
  EXPECT_FALSE(hit);
}

TEST(CompileCache, OversizedSourceStaysResidentUntilReplaced) {
  // A single source over the whole byte budget must still be cached
  // (requests for it would otherwise recompile every time); it goes
  // when something newer lands.
  std::string big = "HAI 1.2\nBTW " + std::string(4096, 'x') +
                    "\nVISIBLE 1\nKTHXBYE\n";
  std::string small = "HAI 1.2\nVISIBLE 2\nKTHXBYE\n";
  CompileCache cache(8, 1024);
  bool hit = false;
  cache.get_or_compile(big, &hit);
  EXPECT_FALSE(hit);
  cache.get_or_compile(big, &hit);
  EXPECT_TRUE(hit) << "over-budget source must not thrash";

  cache.get_or_compile(small);  // newer entry evicts the oversized one
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.get_or_compile(big, &hit);
  EXPECT_FALSE(hit);
}

TEST(CompileCache, ZeroByteBudgetDisablesByteEviction) {
  CompileCache cache(8, 0);
  for (int i = 0; i < 8; ++i) {
    cache.get_or_compile("HAI 1.2\nVISIBLE " + std::to_string(i) +
                         "\nKTHXBYE\n");
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CompileCache, OptLevelsGetDistinctEntries) {
  // Optimization levels produce different compiled shapes (and
  // different step counts), so the same source at -O0 and -O2 must be
  // two cache entries, never an aliased hit.
  CompileCache cache(8);
  lol::CompileOptions o0;
  o0.opt_level = 0;
  lol::CompileOptions o2;  // default: -O2

  EXPECT_NE(lol::service::cache_key(kSum, o0),
            lol::service::cache_key(kSum, o2));

  bool hit = true;
  auto a = cache.get_or_compile(kSum, o0, &hit);
  EXPECT_FALSE(hit);
  auto b = cache.get_or_compile(kSum, o2, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a.program.get(), b.program.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Re-requesting each level hits its own entry.
  auto a2 = cache.get_or_compile(kSum, o0, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a2.program.get(), a.program.get());
  auto b2 = cache.get_or_compile(kSum, o2, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(b2.program.get(), b.program.get());
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

TEST(Service, ConcurrentJobsMatchSequentialRuns) {
  // Mixed sources, PE counts and backends, several copies of each (108
  // jobs) — the service on 4 workers must produce byte-identical per-PE
  // output to plain sequential lol::run.
  std::vector<Job> jobs;
  int id = 0;
  for (int copy = 0; copy < 6; ++copy) {
    for (int n_pes : {1, 2, 4}) {
      for (Backend b : {Backend::kInterp, Backend::kVm}) {
        jobs.push_back(make_job("hello#" + std::to_string(id++), kHello,
                                n_pes, b));
        jobs.push_back(
            make_job("sum#" + std::to_string(id++), kSum, n_pes, b));
        jobs.push_back(make_job("ring#" + std::to_string(id++),
                                lol::paper::ring_listing(), n_pes, b));
      }
    }
  }

  std::vector<std::vector<std::string>> expected;
  for (const auto& job : jobs) {
    lol::RunConfig cfg;
    cfg.n_pes = job.n_pes;
    cfg.backend = job.backend;
    auto r = lol::run_source(job.source, cfg);
    ASSERT_TRUE(r.ok) << job.name << ": " << r.first_error();
    expected.push_back(r.pe_output);
  }

  ServiceOptions opts;
  opts.workers = 4;
  Service svc(opts);
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (const auto& job : jobs) futures.push_back(svc.submit(job));

  for (std::size_t i = 0; i < futures.size(); ++i) {
    JobResult r = futures[i].get();
    ASSERT_EQ(r.status, JobStatus::kOk) << jobs[i].name << ": " << r.error;
    EXPECT_EQ(r.pe_output, expected[i]) << jobs[i].name;
  }

  auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, jobs.size());
  EXPECT_EQ(stats.ok, jobs.size());
  // 3 distinct sources; every later submission of each is a cache hit.
  EXPECT_EQ(stats.cache.misses, 3u);
  EXPECT_EQ(stats.cache.hits, jobs.size() - 3);
}

TEST(Service, RejectPolicyBoundsTheQueue) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.queue_full = QueueFullPolicy::kReject;
  opts.start_paused = true;  // fill the queue deterministically
  Service svc(opts);

  auto f1 = svc.submit(make_job("a", kHello, 1));
  auto f2 = svc.submit(make_job("b", kSum, 1));
  auto f3 = svc.submit(make_job("c", kHello, 1));  // queue full -> rejected

  JobResult rejected = f3.get();  // resolves without any worker running
  EXPECT_EQ(rejected.status, JobStatus::kRejected);
  EXPECT_EQ(rejected.error, "queue full");

  svc.start();
  EXPECT_EQ(f1.get().status, JobStatus::kOk);
  EXPECT_EQ(f2.get().status, JobStatus::kOk);

  auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Service, BlockPolicyAppliesBackpressure) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.queue_full = QueueFullPolicy::kBlock;
  opts.start_paused = true;
  Service svc(opts);

  auto f1 = svc.submit(make_job("a", kHello, 1));
  ASSERT_EQ(svc.queue_depth(), 1u);

  // The second submit must block until a worker frees queue space.
  std::atomic<bool> submitted{false};
  std::future<JobResult> f2;
  std::thread submitter([&] {
    f2 = svc.submit(make_job("b", kSum, 1));
    submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(submitted.load());  // still parked on the full queue

  svc.start();  // workers drain the queue; the blocked submit proceeds
  submitter.join();
  EXPECT_TRUE(submitted.load());
  EXPECT_EQ(f1.get().status, JobStatus::kOk);
  EXPECT_EQ(f2.get().status, JobStatus::kOk);
  EXPECT_EQ(svc.stats().rejected, 0u);
}

TEST(Service, TenantQuotaRejectsFloodWithoutTouchingOthers) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 64;
  opts.max_queued_per_tenant = 2;
  opts.start_paused = true;  // keep everything queued deterministically
  Service svc(opts);

  auto flood_job = [&](const char* name) {
    Job j = make_job(name, kHello, 1);
    j.tenant = "flooder";
    return svc.submit(std::move(j));
  };
  auto f1 = flood_job("a");
  auto f2 = flood_job("b");
  auto f3 = flood_job("c");  // over quota -> refused immediately

  JobResult refused = f3.get();  // resolves without any worker running
  EXPECT_EQ(refused.status, JobStatus::kQuotaExceeded);
  EXPECT_NE(refused.error.find("tenant quota exceeded"), std::string::npos)
      << refused.error;

  // A different tenant is untouched by the flooder's quota.
  Job other = make_job("other", kHello, 1);
  other.tenant = "polite";
  auto f4 = svc.submit(std::move(other));
  EXPECT_EQ(svc.queue_depth(), 3u);  // a, b, other — never c

  svc.start();
  EXPECT_EQ(f1.get().status, JobStatus::kOk);
  EXPECT_EQ(f2.get().status, JobStatus::kOk);
  EXPECT_EQ(f4.get().status, JobStatus::kOk);

  auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.quota_rejected, 1u);
  EXPECT_EQ(stats.rejected, 0u);  // distinguishable from queue-full
  EXPECT_EQ(stats.completed, 3u);
}

TEST(Service, TenantQuotaFreesUpAsTheQueueDrains) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_queued_per_tenant = 1;
  Service svc(opts);  // workers running: queued jobs drain promptly

  // Sequential submits never see the quota: each job leaves the queue
  // before the next submit (quota counts queued jobs, not running ones).
  for (int i = 0; i < 4; ++i) {
    JobResult r = svc.submit(make_job("seq", kHello, 1)).get();
    ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
  }
  EXPECT_EQ(svc.stats().quota_rejected, 0u);
}

TEST(Service, StepBudgetKillsLoopingJobWithoutStallingThePool) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.default_max_steps = 100'000;  // the hostile job dies fast
  Service svc(opts);

  auto hostile = svc.submit(make_job("spin", kSpin, 2));
  std::vector<std::future<JobResult>> rest;
  for (int i = 0; i < 8; ++i) {
    rest.push_back(svc.submit(make_job("ok#" + std::to_string(i),
                                       i % 2 == 0 ? kHello : kSum, 2)));
  }

  JobResult h = hostile.get();
  EXPECT_EQ(h.status, JobStatus::kStepLimit);
  EXPECT_NE(h.error.find("step budget"), std::string::npos) << h.error;

  // Every well-behaved job still completes: the pool survived.
  for (auto& f : rest) {
    JobResult r = f.get();
    EXPECT_EQ(r.status, JobStatus::kOk) << r.name << ": " << r.error;
  }
  auto stats = svc.stats();
  EXPECT_EQ(stats.step_limited, 1u);
  EXPECT_EQ(stats.ok, 8u);
}

TEST(Service, PerJobMaxStepsOverridesTheDefault) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;  // unlimited default...
  Service svc(opts);

  Job j = make_job("spin", kSpin, 1);
  j.max_steps = 5'000;  // ...but this job brings its own budget
  JobResult r = svc.submit(std::move(j)).get();
  EXPECT_EQ(r.status, JobStatus::kStepLimit);
}

TEST(Service, OptLevelChangesStepAccountingAsDocumented) {
  // The optimizer preserves output but not step counts: dce drops the
  // never-read declaration, so each iteration executes one statement
  // fewer. A budget sized between the two costs classifies differently
  // by level — the documented divergence the per-level cache keying
  // exists to keep honest.
  const char* kSmallLoop =
      "HAI 1.2\n"
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "  I HAS A unused ITZ 7\n"
      "  VISIBLE i\n"
      "IM OUTTA YR lp\n"
      "KTHXBYE\n";
  ServiceOptions opts;
  opts.workers = 1;
  Service svc(opts);

  Job fast = make_job("o2", kSmallLoop, 1);
  fast.opt_level = 2;
  fast.max_steps = 62;
  JobResult r2 = svc.submit(std::move(fast)).get();
  ASSERT_EQ(r2.status, JobStatus::kOk) << r2.error;
  ASSERT_EQ(r2.pe_output.size(), 1u);
  EXPECT_EQ(r2.pe_output[0], "0\n1\n2\n3\n");

  Job slow = make_job("o0", kSmallLoop, 1);
  slow.opt_level = 0;
  slow.max_steps = 62;
  JobResult r0 = svc.submit(std::move(slow)).get();
  EXPECT_EQ(r0.status, JobStatus::kStepLimit);

  // Two distinct compiles, no cross-level cache aliasing.
  EXPECT_EQ(svc.stats().cache.misses, 2u);
}

TEST(Service, TunerAppliesPersistedKnobsOnWarmRuns) {
  // Seed a tuner store with a fiber-executor choice for kSum, then
  // submit a job that leaves every knob at default. The service must
  // actually run it on fibers (pinned by the fiber-switch counter, not
  // just the report string) and say so in JobResult::tuned.
  if (!lol::shmem::fiber_executor_available()) {
    GTEST_SKIP() << "no fiber executor on this host";
  }
  std::string path =
      "/tmp/lol_tuner_test_" + std::to_string(::getpid()) + ".knobs";
  std::remove(path.c_str());
  {
    lol::opt::TunerStore store(path);
    lol::opt::TunedKnobs k;
    k.executor = "fiber";
    k.pes_per_thread = 2;
    store.store(lol::replay::fnv1a(kSum), 4, k);
  }

  auto& fiber_switches = lol::obs::Registry::global().counter(
      "lol_fiber_switches_total",
      "Fiber context switches performed by the fiber executor");
  std::uint64_t before = fiber_switches.value();

  ServiceOptions opts;
  opts.workers = 1;
  opts.tuner_cache_path = path;
  Service svc(opts);

  Job j = make_job("tuned", kSum, 4);  // defaults: pool executor
  JobResult r = svc.submit(std::move(j)).get();
  ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_NE(r.tuned.find("executor=fiber"), std::string::npos) << r.tuned;
  EXPECT_NE(r.tuned.find("pes_per_thread=2"), std::string::npos) << r.tuned;
  EXPECT_GT(fiber_switches.value(), before)
      << "tuned executor was reported but not actually used";

  // A job that names its own executor keeps it: tuning never overrides
  // an explicit request.
  Job explicit_job = make_job("explicit", kSum, 4);
  explicit_job.executor = lol::shmem::ExecutorKind::kThread;
  JobResult r2 = svc.submit(std::move(explicit_job)).get();
  ASSERT_EQ(r2.status, JobStatus::kOk) << r2.error;
  EXPECT_EQ(r2.tuned.find("executor="), std::string::npos) << r2.tuned;
  EXPECT_EQ(r.pe_output, r2.pe_output);

  std::remove(path.c_str());
}

TEST(TunerStore, LoadsLegacyV2LinesAndRewritesThemAsV1) {
  // Stores written while the unroller existed hold v2 lines with a
  // trailing unroll cap. They still load, the cap is ignored, and the
  // next store() rewrites the whole file in the v1 format.
  std::string path =
      "/tmp/lol_tuner_v2_test_" + std::to_string(::getpid()) + ".knobs";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "v2 11 4 2 fiber 2 16\n"
        << "v2 22 8 0 - 0 -1\n"
        << "v1 33 2 4 pool 0\n";
  }
  lol::opt::TunerStore store(path);
  auto a = store.lookup(11, 4);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->barrier_radix, 2);
  EXPECT_EQ(a->executor, "fiber");
  EXPECT_EQ(a->pes_per_thread, 2);
  auto b = store.lookup(22, 8);
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(b->any());
  auto c = store.lookup(33, 2);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->executor, "pool");
  EXPECT_FALSE(store.lookup(11, 8).has_value());

  lol::opt::TunedKnobs k;
  k.barrier_radix = 4;
  store.store(44, 16, k);
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"v1 11 4 2 fiber 2",
                                             "v1 22 8 0 - 0",
                                             "v1 33 2 4 pool 0",
                                             "v1 44 16 4 - 0"}));
  std::remove(path.c_str());
}

TEST(Service, MaxStepsCapClampsGreedyJobs) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_steps_cap = 10'000;
  Service svc(opts);

  Job j = make_job("spin", kSpin, 1);
  j.max_steps = 1'000'000'000;  // asks for far more than the cap
  JobResult r = svc.submit(std::move(j)).get();
  EXPECT_EQ(r.status, JobStatus::kStepLimit);
  EXPECT_NE(r.error.find("step budget of 10000"), std::string::npos)
      << r.error;
}

TEST(Service, MaxStepsCapAlsoClampsUnlimitedRequests) {
  // default_max_steps = 0 (unlimited) must not let a job slip past the
  // operator's hard cap by simply not asking for a budget.
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  opts.max_steps_cap = 10'000;
  Service svc(opts);

  JobResult r = svc.submit(make_job("spin", kSpin, 1)).get();
  EXPECT_EQ(r.status, JobStatus::kStepLimit);
  EXPECT_NE(r.error.find("step budget of 10000"), std::string::npos)
      << r.error;
}

TEST(Service, HeapCapClampsGreedyJobs) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.heap_bytes_cap = 128;
  Service svc(opts);

  Job j = make_job("alloc",
                   "HAI 1.2\nWE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ "
                   "64\nKTHXBYE\n",
                   1);
  j.heap_bytes = 1 << 20;  // request is clamped to the 128-byte cap
  JobResult r = svc.submit(std::move(j)).get();
  EXPECT_EQ(r.status, JobStatus::kRuntimeError);
  EXPECT_NE(r.error.find("symmetric heap"), std::string::npos) << r.error;
}

TEST(Service, CompileErrorsAreReportedAndCached) {
  ServiceOptions opts;
  opts.workers = 2;
  Service svc(opts);

  std::string broken = "HAI 1.2\nx R\nKTHXBYE\n";  // parse error
  auto f1 = svc.submit(make_job("bad1", broken, 1));
  auto f2 = svc.submit(make_job("bad2", broken, 1));
  JobResult r1 = f1.get();
  JobResult r2 = f2.get();
  EXPECT_EQ(r1.status, JobStatus::kCompileError);
  EXPECT_EQ(r2.status, JobStatus::kCompileError);
  EXPECT_FALSE(r1.error.empty());
  EXPECT_EQ(r1.error, r2.error);

  auto stats = svc.stats();
  EXPECT_EQ(stats.compile_errors, 2u);
  EXPECT_EQ(stats.cache.misses, 1u);  // the broken source compiled once
}

TEST(Service, ShutdownDrainsQueuedJobs) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.start_paused = true;
  Service svc(opts);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(svc.submit(make_job("q#" + std::to_string(i), kSum, 1)));
  }
  // Never started explicitly: shutdown must still run everything queued.
  svc.shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, JobStatus::kOk);
  }
  EXPECT_EQ(svc.stats().completed, 6u);
}

TEST(Service, SubmitAfterShutdownIsRejected) {
  Service svc(ServiceOptions{});
  svc.shutdown();
  JobResult r = svc.submit(make_job("late", kHello, 1)).get();
  EXPECT_EQ(r.status, JobStatus::kRejected);
}

// ---------------------------------------------------------------------------
// Wall-clock deadlines (the reaper)
// ---------------------------------------------------------------------------

/// An input source that blocks until released (or forever): the
/// GIMMEH-on-real-stdin shape the step budget cannot see. try_read_line
/// honors the bounded wait so deadlines/cancel can interrupt it, and
/// the first poll flips `started` so tests know the job is in flight.
class BlockingInput final : public lol::rt::InputSource {
 public:
  std::optional<std::string> read_line(int pe) override {
    // Only reached through try_read_line in these tests.
    return try_read_line(pe, std::chrono::hours(24)).line;
  }

  lol::rt::TryRead try_read_line(int /*pe*/,
                                 std::chrono::milliseconds wait) override {
    std::unique_lock<std::mutex> g(m_);
    started_ = true;
    started_cv_.notify_all();
    if (cv_.wait_for(g, wait, [&] { return released_; })) {
      return {std::optional<std::string>("released"), false};
    }
    return {std::nullopt, true};
  }

  void release() {
    std::lock_guard<std::mutex> g(m_);
    released_ = true;
    cv_.notify_all();
  }

  void wait_started() {
    std::unique_lock<std::mutex> g(m_);
    started_cv_.wait(g, [&] { return started_; });
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::condition_variable started_cv_;
  bool released_ = false;
  bool started_ = false;
};

const char* kGimmeh = "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE x\nKTHXBYE\n";
// PE 0 enters HUGZ, every other PE exits: a wedged barrier no step
// budget can see (the waiting PE makes no steps at all).
const char* kWedge =
    "HAI 1.2\nBOTH SAEM ME AN 0, O RLY?\nYA RLY\n  HUGZ\nOIC\nKTHXBYE\n";

TEST(Service, DeadlineKillsSpinningJobInUnderOneSecond) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;  // unlimited steps: only the clock can kill it
  Service svc(opts);

  Job j = make_job("spin", kSpin, 2);
  j.deadline_ms = 200;
  auto t0 = std::chrono::steady_clock::now();
  JobResult r = svc.submit(std::move(j)).get();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(r.error.find("deadline of 200 ms"), std::string::npos) << r.error;
  EXPECT_LT(wall_ms, 1000.0) << "deadline took " << wall_ms << " ms to fire";
  EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
}

TEST(Service, DeadlineKillsGimmehBlockedJob) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  Service svc(opts);

  BlockingInput input;  // never released: stdin that never delivers
  Job j = make_job("blocked", kGimmeh, 1);
  j.input = &input;
  j.deadline_ms = 200;
  auto t0 = std::chrono::steady_clock::now();
  JobResult r = svc.submit(std::move(j)).get();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_LT(wall_ms, 1000.0);
}

TEST(Service, DeadlineKillsBarrierWedgedJob) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  Service svc(opts);

  Job j = make_job("wedge", kWedge, 2);
  j.deadline_ms = 200;
  auto t0 = std::chrono::steady_clock::now();
  JobResult r = svc.submit(std::move(j)).get();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_LT(wall_ms, 1000.0);

  // The worker survived: a normal job still runs afterwards.
  EXPECT_EQ(svc.submit(make_job("after", kHello, 2)).get().status,
            JobStatus::kOk);
}

// The combining-tree barrier keeps the deadline contract: PEs wedged
// mid-tree (leaf waiters and climbed group winners alike, radix 2 makes
// the tree as deep as it gets) die by the wall clock on fibers too.
TEST(Service, DeadlineKillsTreeWedgedFiberJob) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  opts.max_pes = 64;
  Service svc(opts);

  Job j = make_job("tree-wedge", kWedge, 16);
  j.executor = lol::shmem::ExecutorKind::kFiber;
  j.pes_per_thread = 8;
  j.barrier_radix = 2;
  j.deadline_ms = 200;
  auto t0 = std::chrono::steady_clock::now();
  JobResult r = svc.submit(std::move(j)).get();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_LT(wall_ms, 1000.0);
}

// And cancel() reaches the same wedge through the same abort path.
TEST(Service, CancelKillsTreeWedgedFiberJob) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  opts.max_pes = 64;
  Service svc(opts);

  Job j = make_job("tree-wedge", kWedge, 16);
  j.executor = lol::shmem::ExecutorKind::kFiber;
  j.pes_per_thread = 8;
  j.barrier_radix = 3;
  auto sub = svc.submit_job(std::move(j));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(svc.cancel(sub.id));
  JobResult r = sub.result.get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
}

TEST(Service, DefaultDeadlineAppliesWhenJobDoesNotAsk) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  opts.default_deadline_ms = 200;
  Service svc(opts);

  JobResult r = svc.submit(make_job("spin", kSpin, 1)).get();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
}

TEST(Service, DeadlineCapClampsGreedyJobs) {
  // A job asking for a huge deadline is clamped to the operator's cap —
  // and a job asking for none at all gets the cap too.
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  opts.deadline_ms_cap = 200;
  Service svc(opts);

  Job greedy = make_job("greedy", kSpin, 1);
  greedy.deadline_ms = 60'000;
  auto t0 = std::chrono::steady_clock::now();
  JobResult r = svc.submit(std::move(greedy)).get();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(r.error.find("deadline of 200 ms"), std::string::npos) << r.error;
  EXPECT_LT(wall_ms, 1000.0);

  JobResult silent = svc.submit(make_job("silent", kSpin, 1)).get();
  EXPECT_EQ(silent.status, JobStatus::kDeadlineExceeded);
}

TEST(Service, DeadlineLeavesFastJobsAlone) {
  ServiceOptions opts;
  opts.workers = 2;
  Service svc(opts);

  Job j = make_job("quick", kSum, 2);
  j.deadline_ms = 5'000;
  JobResult r = svc.submit(std::move(j)).get();
  EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_EQ(svc.stats().deadline_exceeded, 0u);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(Service, CancelQueuedJobNeverRuns) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.start_paused = true;  // hold both jobs in the queue
  Service svc(opts);

  auto keep = svc.submit_job(make_job("keep", kHello, 1));
  auto drop = svc.submit_job(make_job("drop", kHello, 1));
  EXPECT_TRUE(svc.cancel(drop.id));

  // Resolves immediately, before any worker exists.
  JobResult r = drop.result.get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_EQ(r.id, drop.id);
  EXPECT_NE(r.error.find("queued"), std::string::npos);
  EXPECT_EQ(svc.queue_depth(), 1u);

  svc.start();
  EXPECT_EQ(keep.result.get().status, JobStatus::kOk);
  auto stats = svc.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);  // the cancelled job never ran
}

TEST(Service, CancelInFlightJobAbortsItsRuntime) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;  // no step budget, no deadline: only cancel
  Service svc(opts);

  BlockingInput input;
  Job j = make_job("inflight", kGimmeh, 2);
  j.input = &input;
  auto sub = svc.submit_job(std::move(j));
  input.wait_started();  // the job is provably executing now

  EXPECT_TRUE(svc.cancel(sub.id));
  JobResult r = sub.result.get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_NE(r.error.find("running"), std::string::npos);
  EXPECT_EQ(svc.stats().cancelled, 1u);

  // Pool healthy afterwards.
  EXPECT_EQ(svc.submit(make_job("after", kHello, 1)).get().status,
            JobStatus::kOk);
}

TEST(Service, CancelUnknownOrFinishedJobReturnsFalse) {
  Service svc(ServiceOptions{});
  EXPECT_FALSE(svc.cancel(424242));

  auto sub = svc.submit_job(make_job("done", kHello, 1));
  EXPECT_EQ(sub.result.get().status, JobStatus::kOk);
  EXPECT_FALSE(svc.cancel(sub.id));
}

TEST(Service, CancelledSpinningJobDiesWithoutStepBudget) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  Service svc(opts);

  auto sub = svc.submit_job(make_job("spin", kSpin, 2));
  // Wait until the worker picked it up, then cancel.
  while (svc.running_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(svc.cancel(sub.id));
  EXPECT_EQ(sub.result.get().status, JobStatus::kCancelled);
}

// ---------------------------------------------------------------------------
// Per-tenant fair queueing (deficit round robin)
// ---------------------------------------------------------------------------

TEST(Service, LightTenantIsNotStarvedByHeavyTenant) {
  ServiceOptions opts;
  opts.workers = 1;       // sequential dispatch => deterministic order
  opts.start_paused = true;
  Service svc(opts);

  std::mutex order_m;
  std::vector<std::string> order;
  auto track = [&](const JobResult& r) {
    std::lock_guard<std::mutex> g(order_m);
    order.push_back(r.tenant);
  };

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 10; ++i) {
    Job j = make_job("heavy#" + std::to_string(i), kHello, 1);
    j.tenant = "heavy";
    futures.push_back(svc.submit_job(std::move(j), track).result);
  }
  for (int i = 0; i < 2; ++i) {
    Job j = make_job("light#" + std::to_string(i), kHello, 1);
    j.tenant = "light";
    futures.push_back(svc.submit_job(std::move(j), track).result);
  }

  svc.start();
  for (auto& f : futures) f.get();

  // Equal weights: strict alternation until light drains — despite the
  // heavy tenant having submitted its whole burst first.
  ASSERT_EQ(order.size(), 12u);
  EXPECT_EQ(order[0], "heavy");
  EXPECT_EQ(order[1], "light");
  EXPECT_EQ(order[2], "heavy");
  EXPECT_EQ(order[3], "light");
  for (std::size_t i = 4; i < order.size(); ++i) {
    EXPECT_EQ(order[i], "heavy") << i;
  }
}

TEST(Service, TenantWeightsShapeTheSchedule) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  opts.tenant_weights = {{"paid", 3}, {"free", 1}};
  Service svc(opts);

  std::mutex order_m;
  std::vector<std::string> order;
  auto track = [&](const JobResult& r) {
    std::lock_guard<std::mutex> g(order_m);
    order.push_back(r.tenant);
  };

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    Job j = make_job("paid#" + std::to_string(i), kHello, 1);
    j.tenant = "paid";
    futures.push_back(svc.submit_job(std::move(j), track).result);
  }
  for (int i = 0; i < 2; ++i) {
    Job j = make_job("free#" + std::to_string(i), kHello, 1);
    j.tenant = "free";
    futures.push_back(svc.submit_job(std::move(j), track).result);
  }

  svc.start();
  for (auto& f : futures) f.get();

  // DRR with weights 3:1 — paid dispatches 3 jobs per round, free 1.
  std::vector<std::string> expect = {"paid", "paid", "paid", "free",
                                     "paid", "paid", "paid", "free"};
  EXPECT_EQ(order, expect);
}

TEST(Service, TenantsShareWorkersUnderConcurrentLoad) {
  // Sanity under real concurrency (no paused start): both tenants'
  // jobs all complete and the ids/tenants round-trip.
  ServiceOptions opts;
  opts.workers = 4;
  Service svc(opts);

  std::vector<std::pair<std::string, std::future<JobResult>>> subs;
  for (int i = 0; i < 24; ++i) {
    Job j = make_job("job#" + std::to_string(i), i % 3 == 0 ? kSum : kHello,
                     1 + i % 4);
    j.tenant = i % 2 == 0 ? "even" : "odd";
    std::string tenant = j.tenant;
    subs.emplace_back(std::move(tenant), svc.submit_job(std::move(j)).result);
  }
  for (auto& [tenant, fut] : subs) {
    JobResult r = fut.get();
    EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
    EXPECT_EQ(r.tenant, tenant);
    EXPECT_NE(r.id, 0u);
  }
  EXPECT_EQ(svc.stats().ok, 24u);
}

// ---------------------------------------------------------------------------
// Native-backend parity: the same deadline / cancel / step-budget
// guarantees the interp and VM paths have, on lcc-generated code running
// in-process. Skipped (not failed) on hosts without a C compiler.
// ---------------------------------------------------------------------------

#define SKIP_WITHOUT_NATIVE()                                       \
  if (!lol::codegen::native_available()) {                          \
    GTEST_SKIP() << "no host C compiler for the native backend";    \
  }

TEST(Service, NativeBackendMatchesVmOutput) {
  SKIP_WITHOUT_NATIVE();
  Service svc({.workers = 2});
  JobResult vm = svc.submit(make_job("vm", kSum, 2, Backend::kVm)).get();
  JobResult nat =
      svc.submit(make_job("native", kSum, 2, Backend::kNative)).get();
  ASSERT_EQ(vm.status, JobStatus::kOk) << vm.error;
  ASSERT_EQ(nat.status, JobStatus::kOk) << nat.error;
  EXPECT_EQ(nat.pe_output, vm.pe_output);
}

TEST(Service, NativeBackendStepLimitKillsSpinningJob) {
  SKIP_WITHOUT_NATIVE();
  ServiceOptions opts;
  opts.workers = 1;
  Service svc(opts);
  Job j = make_job("native-spin", kSpin, 2, Backend::kNative);
  j.max_steps = 50'000;
  JobResult r = svc.submit(std::move(j)).get();
  EXPECT_EQ(r.status, JobStatus::kStepLimit);
  EXPECT_NE(r.error.find("step budget"), std::string::npos) << r.error;
}

TEST(Service, NativeBackendDeadlineKillsSpinningJobInUnderOneSecond) {
  SKIP_WITHOUT_NATIVE();
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;  // unlimited steps: only the clock can kill it
  Service svc(opts);

  // Warm the native compile cache so the host-cc invocation is not billed
  // against the wall-clock assertion below.
  Job warm = make_job("native-warm", kSpin, 1, Backend::kNative);
  warm.deadline_ms = 100;
  (void)svc.submit(std::move(warm)).get();

  Job j = make_job("native-spin", kSpin, 2, Backend::kNative);
  j.deadline_ms = 200;
  auto t0 = std::chrono::steady_clock::now();
  JobResult r = svc.submit(std::move(j)).get();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(r.error.find("deadline of 200 ms"), std::string::npos) << r.error;
  EXPECT_LT(wall_ms, 1000.0) << "native deadline took " << wall_ms << " ms";
}

TEST(Service, NativeBackendCancelAbortsInFlightJob) {
  SKIP_WITHOUT_NATIVE();
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  Service svc(opts);

  auto sub = svc.submit_job(make_job("native-spin", kSpin, 2,
                                     Backend::kNative));
  // Let the job reach the worker (compile may need one cc invocation on
  // a cold cache), then cancel mid-spin.
  while (svc.running_depth() == 0 && svc.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(svc.cancel(sub.id));
  JobResult r = sub.result.get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
}

// ---------------------------------------------------------------------------
// Fairness under randomized (seeded) submission order — the service-side
// counterpart of `lolserve --shuffle`: DRR must deliver the same
// alternation guarantee no matter how arrivals interleave.
// ---------------------------------------------------------------------------

TEST(Service, DrrFairnessHoldsUnderShuffledSubmissionOrder) {
  ServiceOptions opts;
  opts.workers = 1;  // sequential dispatch => deterministic order
  opts.start_paused = true;
  Service svc(opts);

  std::mutex order_m;
  std::vector<std::string> order;
  auto track = [&](const JobResult& r) {
    std::lock_guard<std::mutex> g(order_m);
    order.push_back(r.tenant);
  };

  // 6 jobs each for tenants a/b, submitted in a seeded-shuffled order.
  std::vector<std::string> submissions;
  for (int i = 0; i < 6; ++i) {
    submissions.push_back("a");
    submissions.push_back("b");
  }
  std::mt19937_64 rng(20170529);
  std::shuffle(submissions.begin(), submissions.end(), rng);

  std::vector<std::future<JobResult>> futures;
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    Job j = make_job(submissions[i] + "#" + std::to_string(i), kHello, 1);
    j.tenant = submissions[i];
    futures.push_back(svc.submit_job(std::move(j), track).result);
  }

  svc.start();
  for (auto& f : futures) f.get();

  // Equal weights and equal totals: once both tenants are queued the
  // DRR schedule must alternate regardless of the arrival permutation.
  // The first few dispatches may be single-tenant (the shuffle can front-
  // load one tenant), so assert the alternation property instead of one
  // fixed sequence: no tenant ever gets 2+ more dispatches than the
  // other had chances for, i.e. within any prefix the counts differ by
  // at most the imbalance of what had been submitted.
  ASSERT_EQ(order.size(), 12u);
  int a_done = 0;
  int b_done = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    (order[i] == "a" ? a_done : b_done)++;
    // All jobs are queued before start(): with weight 1 each, DRR hands
    // out at most one job per tenant per round, so the running counts
    // can never drift more than 1 apart until one tenant drains.
    if (a_done < 6 && b_done < 6) {
      EXPECT_LE(std::abs(a_done - b_done), 1)
          << "unfair prefix at dispatch " << i;
    }
  }
  EXPECT_EQ(a_done, 6);
  EXPECT_EQ(b_done, 6);
}

// ---------------------------------------------------------------------------
// Executor selection (pool default, fiber jobs, deadline/cancel parity)
// ---------------------------------------------------------------------------

TEST(Service, FiberJobAtHighPeCountMatchesPooledOutput) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.max_pes = 256;
  Service svc(opts);

  Job pooled = make_job("pooled", lol::paper::barrier_sum_listing(), 128);
  pooled.heap_bytes = 16 << 10;
  Job fiber = pooled;
  fiber.name = "fiber";
  fiber.executor = lol::shmem::ExecutorKind::kFiber;
  fiber.pes_per_thread = 32;

  JobResult a = svc.submit(std::move(pooled)).get();
  JobResult b = svc.submit(std::move(fiber)).get();
  ASSERT_EQ(a.status, JobStatus::kOk) << a.error;
  ASSERT_EQ(b.status, JobStatus::kOk) << b.error;
  EXPECT_EQ(a.pe_output, b.pe_output);
}

// The acceptance bar from the executor refactor: a fiber-executor job
// wedged in a barrier (or spinning) dies by deadline_ms in under a
// second, exactly like a thread-executor job — the reaper's abort must
// reach fibers parked in the cooperative barrier.
TEST(Service, DeadlineKillsFiberExecutorJobInUnderOneSecond) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;  // only the clock can kill it
  opts.max_pes = 256;
  Service svc(opts);

  // 15 PEs wait in HUGZ across 2 carriers, PE 0 spins forever; a gang
  // this size stays inside the 1 s bound even under TSan's slowdown.
  Job j = make_job("fiber-wedge", kWedge, 16);
  j.executor = lol::shmem::ExecutorKind::kFiber;
  j.pes_per_thread = 8;
  j.deadline_ms = 200;
  auto t0 = std::chrono::steady_clock::now();
  JobResult r = svc.submit(std::move(j)).get();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded) << r.error;
  EXPECT_LT(wall_ms, 1000.0) << "fiber deadline took " << wall_ms << " ms";

  // The worker survived: a fiber job still runs afterwards.
  Job after = make_job("after", kHello, 32);
  after.executor = lol::shmem::ExecutorKind::kFiber;
  EXPECT_EQ(svc.submit(std::move(after)).get().status, JobStatus::kOk);
}

TEST(Service, CancelKillsInFlightFiberExecutorJobInUnderOneSecond) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.default_max_steps = 0;
  Service svc(opts);

  BlockingInput input;
  Job j = make_job("fiber-blocked", kGimmeh, 4);
  j.executor = lol::shmem::ExecutorKind::kFiber;
  j.pes_per_thread = 4;
  j.input = &input;
  auto sub = svc.submit_job(std::move(j));
  input.wait_started();  // in flight, blocked in GIMMEH on a carrier
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(svc.cancel(sub.id));
  JobResult r = sub.result.get();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(r.status, JobStatus::kCancelled) << r.error;
  EXPECT_LT(wall_ms, 1000.0);
}

TEST(Service, FiberStepBudgetKillsSpinningJob) {
  ServiceOptions opts;
  opts.workers = 1;
  Service svc(opts);

  Job j = make_job("fiber-spin", kSpin, 8);
  j.executor = lol::shmem::ExecutorKind::kFiber;
  j.pes_per_thread = 8;
  j.max_steps = 20'000;
  JobResult r = svc.submit(std::move(j)).get();
  EXPECT_EQ(r.status, JobStatus::kStepLimit) << r.error;
}

}  // namespace
