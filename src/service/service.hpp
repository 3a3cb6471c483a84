// lol::service::Service — the multi-tenant job-execution layer.
//
// The paper's flow is one student, one program, one `coprsh -np 16`
// launch. A classroom (or playground web backend) is hundreds of
// submissions arriving at once. This service turns the engine into that
// deployment:
//
//   * a fixed pool of worker threads executes jobs (each job still runs
//     SPMD on its own n_pes threads inside the engine)
//   * per-tenant queues scheduled by deficit-round-robin: a tenant
//     flooding the service gets at most its weight's share of workers,
//     it cannot starve everyone else (the old design was one global FIFO)
//   * a bounded queue provides backpressure: submit() blocks or rejects
//     when the total queued count hits capacity, as configured
//   * an LRU CompileCache deduplicates compilation across jobs; the
//     resulting CompiledPrograms are shared, immutable, across workers
//   * per-job resource limits: the step budget (kStepLimit) catches
//     runaway loops, and a wall-clock deadline enforced by a
//     monotonic-clock reaper thread (kDeadlineExceeded) catches what
//     steps cannot — jobs blocked in GIMMEH, wedged in a barrier, or
//     spinning inside one shmem op. Both are clamped to service caps.
//   * cancel(JobId) removes a queued job or aborts an in-flight one
//     through the same shmem::Runtime::abort path (kCancelled)
//
//   Service svc({.workers = 4});
//   auto sub = svc.submit_job({.name = "ring", .source = src, .n_pes = 4});
//   svc.cancel(sub.id);            // or: JobResult r = sub.result.get();
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/abort.hpp"
#include "service/compile_cache.hpp"
#include "service/job.hpp"

namespace lol::service {

/// What submit() does when the bounded queue is full.
enum class QueueFullPolicy {
  kBlock,   // wait for space (backpressure onto the submitter)
  kReject,  // fail fast: future resolves immediately with kRejected
};

struct ServiceOptions {
  int workers = 4;
  std::size_t queue_capacity = 256;      // pending jobs before backpressure
  QueueFullPolicy queue_full = QueueFullPolicy::kBlock;

  /// Per-tenant cap on *queued* jobs (0 = unlimited). Unlike the global
  /// bound — which can block the submitter under kBlock — a tenant over
  /// its quota is rejected immediately with JobStatus::kQuotaExceeded:
  /// one flooding tenant must never get to park on the shared queue-full
  /// condition and slow everyone else's submissions down. Running jobs
  /// do not count against the quota.
  std::size_t max_queued_per_tenant = 0;
  std::size_t cache_capacity = 128;      // compiled sources kept hot
  std::size_t cache_bytes = 32u << 20;   // estimated-footprint cap (0 = off)

  // Resource-limit policy. A job asking for 0 steps gets default_max_steps;
  // any request is clamped to max_steps_cap / heap_bytes_cap (0 = uncapped).
  std::uint64_t default_max_steps = 50'000'000;
  std::uint64_t max_steps_cap = 0;
  std::size_t heap_bytes_cap = 64u << 20;
  int max_pes = 64;                      // clamp on per-job n_pes

  // Wall-clock deadline policy, same shape as the step budget: a job
  // asking for 0 ms gets default_deadline_ms (0 = none); any request is
  // clamped to deadline_ms_cap (0 = uncapped, but a cap also bounds jobs
  // that did not ask for a deadline at all).
  std::uint64_t default_deadline_ms = 0;
  std::uint64_t deadline_ms_cap = 0;

  /// Deficit-round-robin weights: a tenant with weight w gets w jobs
  /// dispatched per scheduling round. Unlisted tenants get
  /// default_tenant_weight.
  std::map<std::string, int> tenant_weights;
  int default_tenant_weight = 1;

  /// When true, workers are not started by the constructor; jobs queue up
  /// until start() is called. Lets tests (and staged deployments) fill
  /// the queue deterministically.
  bool start_paused = false;
};

class Service {
 public:
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;   // ran (any status but kRejected)
    std::uint64_t ok = 0;
    std::uint64_t compile_errors = 0;
    std::uint64_t runtime_errors = 0;
    std::uint64_t step_limited = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t cancelled = 0;   // queued + in-flight cancels
    std::uint64_t rejected = 0;
    std::uint64_t quota_rejected = 0;  // per-tenant quota refusals
    std::uint64_t pe_failed = 0;       // fault injection took a PE down
    std::uint64_t replay_diverged = 0;
    CompileCache::Stats cache;
  };

  /// Invoked on the worker thread (or the submitter, for rejected /
  /// queued-cancelled jobs) right before the job's future resolves.
  /// Must not call back into the Service.
  using Callback = std::function<void(const JobResult&)>;

  /// What submit_job hands back: the id (usable with cancel) plus the
  /// future the result arrives on.
  struct Submission {
    JobId id = 0;
    std::future<JobResult> result;
  };

  explicit Service(ServiceOptions opts = {});

  /// Drains the queue and joins the workers.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Enqueues a job on its tenant's queue. With kBlock the call waits
  /// for queue space; with kReject a full queue resolves the future
  /// immediately with JobStatus::kRejected. The future is always valid.
  /// `on_done`, when set, streams the result as soon as the job finishes
  /// (the daemon and lolserve use this for per-job status lines).
  Submission submit_job(Job job, Callback on_done = nullptr);

  /// Compatibility shorthand for callers that only want the future.
  std::future<JobResult> submit(Job job) {
    return submit_job(std::move(job)).result;
  }

  /// Cancels a job: a queued job is removed and resolves kCancelled
  /// without running; an in-flight job is aborted through its runtime
  /// (PEs blocked in barriers/locks/GIMMEH wake up and die). Returns
  /// false when the id is unknown or the job already finished.
  bool cancel(JobId id);

  /// Starts the workers (no-op unless constructed with start_paused).
  void start();

  /// Stops accepting new jobs, finishes everything queued, joins the
  /// workers and the reaper. Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const ServiceOptions& options() const { return opts_; }

  /// Pending (not yet picked up) jobs — used by tests and monitoring.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Jobs currently executing on workers.
  [[nodiscard]] std::size_t running_depth() const;

 private:
  /// Why an in-flight job was aborted; decides the reported status when
  /// the run comes back failed. First writer wins (CAS from kNone).
  enum AbortReason : int { kReasonNone = 0, kReasonDeadline, kReasonCancel };

  /// Shared between the executing worker, the reaper and cancel().
  struct Inflight {
    AbortToken token;
    std::atomic<int> abort_reason{kReasonNone};
    std::atomic<bool> done{false};
  };

  struct Pending {
    JobId id = 0;
    Job job;
    std::promise<JobResult> promise;
    Callback on_done;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One tenant's FIFO plus its DRR scheduling state. Entries are
  /// reaped once the queue drains (tenant names are client-chosen in
  /// daemon mode, so a persistent map would be an unbounded-memory DoS).
  struct TenantState {
    std::string name;      // map key, for self-removal on drain
    int weight = 1;
    int credit = 0;        // jobs this tenant may still dispatch this round
    bool in_rotation = false;
    std::deque<Pending> q;
  };

  struct ReapEntry {
    std::chrono::steady_clock::time_point when;
    std::shared_ptr<Inflight> inflight;
  };
  struct ReapLater {
    bool operator()(const ReapEntry& a, const ReapEntry& b) const {
      return a.when > b.when;
    }
  };

  void start_locked();  // spawns workers + reaper; caller holds m_
  void worker_loop();
  void reaper_loop();
  void arm_deadline(std::chrono::steady_clock::time_point when,
                    const std::shared_ptr<Inflight>& inflight);
  Pending pop_locked();  // DRR pick; caller holds m_, queued_total_ > 0
  JobResult execute(Pending& p, Inflight& inflight, double queue_ms);
  void record(const JobResult& r);
  void deliver(Pending& p, JobResult r);  // callback + promise

  /// Per-Service lock-free counters. Workers bump these without m_, and
  /// stats() assembles a snapshot from relaxed loads — the old design
  /// copied a Stats struct under the service mutex, stalling submitters
  /// and workers behind every monitoring scrape. Padded so a worker
  /// recording results never false-shares with submitters counting
  /// rejections. Mirrored into obs::Registry::global() at the same
  /// sites; these stay per-instance so multiple Services (tests run
  /// many) keep exact independent counts.
  struct AtomicStats {
    alignas(64) std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> quota_rejected{0};
    alignas(64) std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> compile_errors{0};
    std::atomic<std::uint64_t> runtime_errors{0};
    std::atomic<std::uint64_t> step_limited{0};
    std::atomic<std::uint64_t> deadline_exceeded{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> pe_failed{0};
    std::atomic<std::uint64_t> replay_diverged{0};
  };

  ServiceOptions opts_;
  CompileCache cache_;

  mutable std::mutex m_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::unordered_map<std::string, TenantState> tenants_;
  std::deque<TenantState*> rotation_;  // tenants with queued jobs, DRR order
  std::size_t queued_total_ = 0;
  std::unordered_map<JobId, std::shared_ptr<Inflight>> running_;
  JobId next_id_ = 1;
  bool stopping_ = false;
  bool started_ = false;
  AtomicStats counts_;

  std::vector<std::thread> workers_;

  // Deadline reaper: a min-heap of (expiry, inflight) serviced by one
  // thread on the monotonic clock. Lazy deletion: entries for jobs that
  // finished early stay queued until their expiry and are discarded
  // then — bounded by (job rate x deadline cap) ~32-byte entries, which
  // beats the bookkeeping of an erasable indexed heap.
  std::mutex reaper_m_;
  std::condition_variable reaper_cv_;
  std::priority_queue<ReapEntry, std::vector<ReapEntry>, ReapLater> reap_;
  bool reaper_stop_ = false;
  std::thread reaper_;
};

}  // namespace lol::service
