// Seeded job generators for the three benchmark workloads.
//
// A workload is a job mix plus the service shape that runs it. Each
// client's job stream is a pure function of (workload, seed, client,
// index): the same seed always yields the same jobs, and the benchmark
// only ever hands the Service jobs taken from those streams.
//
//   classroom      warm compile cache, 2 closed-loop clients, 2 workers:
//                  the example corpus plus the paper's §VI.A-C listings,
//                  heat_1d at 16 PEs and the rest at 4, on vm and jit
//   fresh_compile  every job a never-seen program at 1 PE on jit: seeded
//                  variants of the corpus and of the §VI.D n-body listing
//                  whose bytecode differs, so both the compile cache and
//                  the process-wide JIT code cache miss
//   spmd_kernels   warm, long-running jobs from 1 client: §VI.D n-body
//                  and a scaled heat_1d at 2 PEs on vm and jit, plus a
//                  §VI.C put+HUGZ loop at 256 fiber PEs on 2 carriers
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/job.hpp"
#include "service/service.hpp"

namespace perfbench {

/// One job of a workload. `shape` names the program/PE
/// count/backend combination ("heat_1d np16 jit"); warm-up runs each
/// distinct shape once before timing.
struct BenchJob {
  std::string shape;
  lol::service::Job job;
};

/// The service configuration and job streams of one workload.
///
/// Each closed-loop client has its own job stream: block after block,
/// a seeded permutation of the workload's job mix. Independent streams
/// keep which jobs overlap in time a matter of chance that averages out
/// over a run, instead of a pattern fixed by the seed.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  int clients = 1;
  lol::service::ServiceOptions service;

  /// Every job is a program never seen before: a seeded variant of its
  /// mix entry whose bytecode differs (fresh_compile).
  bool fresh = false;

  /// Windows the timed phase is cut into for the end-to-end figures
  /// (medians across windows). Only workloads that complete well over
  /// 1000 jobs per window get more than one, so every window's p99 still
  /// has at least 10 samples beyond it.
  int windows = 1;

  /// One job per distinct shape, run once during set-up.
  std::vector<BenchJob> warmup;

  /// The jobs one block of a stream holds, in canonical order.
  std::vector<BenchJob> mix;

  /// Index into `mix` of client `client`'s `j`-th job.
  [[nodiscard]] std::size_t mix_index(int client, std::size_t j) const;

  /// Client `client`'s `j`-th job.
  [[nodiscard]] BenchJob job(int client, std::size_t j) const;
};

/// Builds workload `name` for `seed`; `examples_dir` holds the
/// examples/lol corpus. Throws std::runtime_error on an unknown name or
/// a missing corpus file.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& examples_dir);

}  // namespace perfbench
