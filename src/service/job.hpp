// Job and JobResult: the unit of work the execution service schedules.
//
// A Job is one student submission in the classroom-deployment story: a
// LOLCODE source plus the RunConfig-shaped knobs a multi-tenant host is
// willing to expose (PE count, backend, seed, stdin, resource limits,
// wall-clock deadline, tenant identity). The service clamps the limits
// against its own caps before running.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace lol::service {

/// Identifies one submission for cancel() and daemon-protocol
/// correlation. Assigned by Service::submit_job, unique per Service,
/// never 0.
using JobId = std::uint64_t;

/// One queued execution request.
struct Job {
  std::string name;      // reporting label ("ring.lol", "user42#7", ...)
  std::string source;    // full LOLCODE text (the compile-cache key)
  int n_pes = 1;
  Backend backend = Backend::kVm;
  std::uint64_t seed = 20170529;
  std::vector<std::string> stdin_lines;

  /// Fair-queueing key: jobs compete FIFO within a tenant, tenants share
  /// workers by deficit-round-robin weight. "" is the default tenant.
  std::string tenant;

  // Resource requests; the service clamps them to ServiceOptions caps.
  std::uint64_t max_steps = 0;     // 0 = service default
  std::size_t heap_bytes = 1 << 20;

  /// Wall-clock execution budget in milliseconds, measured from worker
  /// pickup; 0 = service default. The reaper aborts the run when it
  /// expires, even if every PE is blocked in GIMMEH, a barrier or a lock
  /// — cases the step budget cannot see.
  std::uint64_t deadline_ms = 0;

  /// How the job's PEs map onto OS threads. The service default is the
  /// persistent process-wide pool (no per-job thread spawn/join);
  /// kFiber lets a job ask for PE counts far beyond the host's cores.
  /// Deadline/cancel semantics are identical across executors.
  shmem::ExecutorKind executor = shmem::ExecutorKind::kPool;

  /// Fiber executor only: virtual PEs per carrier thread (0 = auto).
  int pes_per_thread = 0;

  /// Combining-tree barrier fan-in (RunConfig::barrier_radix); values
  /// below 2 mean auto. Results are radix-independent by construction,
  /// so this is a performance/teaching knob, not a semantic one.
  int barrier_radix = 0;

  /// Live input override for GIMMEH (embedders only; must outlive the
  /// job). Null => stdin_lines. Blocking sources should implement
  /// rt::InputSource::try_read_line so deadlines can interrupt them.
  rt::InputSource* input = nullptr;

  /// Deterministic scheduling (replay/trace.hpp). kRecord/kPerturb
  /// serialize the gang and return the schedule in
  /// JobResult::schedule_trace; kReplay enforces `replay_trace`. The
  /// service keys the trace against this job's source hash.
  replay::ScheduleMode schedule = replay::ScheduleMode::kNone;
  std::uint64_t perturb_seed = 0;
  std::string replay_trace;  // serialized Trace (kReplay only)

  /// Fault-injection spec, replay::parse_fault_spec grammar
  /// ("pe=K@step=S", "noc=F", "input=N", comma-separated). "" = none.
  std::string fault_spec;

  /// Optimizing middle-end level (0 = off, 1 = fold/prop/dce, 2 = adds
  /// fuse/licm/strength, the default). Part of the compile-cache key:
  /// the same source at different levels is compiled and cached
  /// separately, because the passes legitimately change step counts
  /// (see src/opt/opt.hpp).
  int opt_level = 2;
};

/// How a job ended.
enum class JobStatus {
  kOk,                // ran to completion on every PE
  kCompileError,      // lex/parse/sema rejected the source
  kRuntimeError,      // a PE raised a runtime error
  kStepLimit,         // killed: a PE exhausted its step budget
  kDeadlineExceeded,  // killed: wall-clock deadline expired (reaper abort)
  kCancelled,         // killed or dequeued by Service::cancel
  kRejected,          // never ran: bounded queue was full (kReject policy)
  kQuotaExceeded,     // never ran: this tenant's queued-job quota was full
  kPeFailed,          // killed: fault injection took a PE down mid-run
  kReplayDiverged,    // replay: execution left the recorded schedule
};

[[nodiscard]] constexpr const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kCompileError: return "compile-error";
    case JobStatus::kRuntimeError: return "runtime-error";
    case JobStatus::kStepLimit: return "step-limit";
    case JobStatus::kDeadlineExceeded: return "deadline-exceeded";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kQuotaExceeded: return "quota-exceeded";
    case JobStatus::kPeFailed: return "pe-failed";
    case JobStatus::kReplayDiverged: return "replay-diverged";
  }
  return "?";
}

/// One phase of a job's lifecycle, timestamped relative to submission.
/// The service emits spans in order: queued → compile (or
/// compile[cached]) → claim (runtime build + executor claim, up to the
/// first PE starting) → run (first PE start to gang join) → drain
/// (result/output collection). Refused jobs carry only `queued`.
struct TraceSpan {
  std::string name;
  double start_ms = 0.0;  // offset from submit_job acceptance
  double dur_ms = 0.0;
};

/// Outcome delivered through the future returned by Service::submit.
struct JobResult {
  JobId id = 0;
  std::string name;
  std::string tenant;
  JobStatus status = JobStatus::kOk;
  std::string error;                   // first error (empty on kOk)
  std::vector<std::string> pe_output;  // per-PE stdout (empty unless run)
  std::vector<std::string> pe_errout;  // per-PE stderr
  bool compile_cache_hit = false;      // source was already compiled
  double queue_ms = 0.0;               // submit -> worker pickup
  double run_ms = 0.0;                 // compile(+cache) + execution
  std::vector<TraceSpan> trace;        // lifecycle phases (see TraceSpan)
  /// Serialized schedule trace when the job recorded or perturbed.
  std::string schedule_trace;
  /// Auto-tuned knobs the service applied on this run, as
  /// "knob=value" pairs ("barrier_radix=4 executor=fiber"); empty when
  /// no tuner store is configured, the store has no entry for this
  /// (program, n_pes), or the job pinned every knob itself.
  std::string tuned;

  [[nodiscard]] bool ok() const { return status == JobStatus::kOk; }
};

}  // namespace lol::service
