// A thread-safe LRU cache of compiled programs keyed by source hash.
//
// Hundreds of concurrent submissions in a classroom are mostly the same
// handful of sources (everyone runs the lab starter, then small edits).
// Compilation (lex+parse+sema) dominates short jobs, so the service
// deduplicates it here: the first request for a source compiles it, every
// later request shares the same immutable CompiledProgram (safe — runs
// only read it; see engine_test "CompiledProgramIsReusableAcrossRuns").
// Failed compiles are cached too, so a broken source submitted in a loop
// costs one compile, not N.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/engine.hpp"

namespace lol::service {

/// 64-bit FNV-1a over the source text — the base of the cache key.
[[nodiscard]] std::uint64_t hash_source(std::string_view source);

/// The full cache key: the source hash mixed with the opt level and the
/// optimizer pipeline version, via opt::mix_hash. The same source
/// submitted at -O0 and -O2 is two distinct entries — dce, fuse and the
/// loop passes legitimately change step counts, so the compiled
/// artifacts are not interchangeable — and a pipeline-version bump
/// invalidates every optimized entry at once.
[[nodiscard]] std::uint64_t cache_key(std::string_view source,
                                      const CompileOptions& opts);

/// What the cache stores per source: either a shared compiled program or
/// the diagnostic the compiler produced.
struct CachedCompile {
  std::shared_ptr<const CompiledProgram> program;  // null on failure
  std::string error;  // compiler diagnostic when program == null

  [[nodiscard]] bool ok() const { return program != nullptr; }
};

class CompileCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    [[nodiscard]] double hit_rate() const {
      std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  /// Estimated resident bytes for one cached source: the text itself
  /// plus a multiplier for the AST + analysis it expands into (ASTs are
  /// pointer-heavy, several times the source size) plus fixed entry
  /// overhead. A heuristic, not an exact measurement — its job is to
  /// make eviction pressure proportional to memory, not entry count,
  /// so one 2 MB paste can no longer cost the same as one 40-byte
  /// hello.
  [[nodiscard]] static std::size_t charged_bytes(std::size_t source_bytes) {
    return source_bytes * 8 + 512;
  }

  /// `capacity` = max cached sources (>= 1); `capacity_bytes` bounds
  /// the estimated resident footprint (0 = unbounded). Whichever limit
  /// is hit first evicts from the LRU tail, though the most recent
  /// entry always stays (an oversized source is cached until something
  /// newer arrives, not thrashed on every request).
  explicit CompileCache(std::size_t capacity = 128,
                        std::size_t capacity_bytes = 32u << 20);

  /// Releases this cache's contribution to the process-wide
  /// resident-bytes gauge (tests construct many short-lived caches).
  ~CompileCache();

  /// Returns the cached compile for `source` at `opts`, compiling at
  /// most once per (source, options) even under concurrent requests for
  /// it: the first caller publishes a future and compiles outside the
  /// lock, later callers block on that future (a hit). `hit` (optional)
  /// reports whether this call was served from cache. Optimization runs
  /// exactly here — once at insert time — so every later run of the
  /// entry, on any backend, executes the already-optimized program.
  CachedCompile get_or_compile(const std::string& source,
                               const CompileOptions& opts,
                               bool* hit = nullptr);

  /// Shorthand at the default options (-O2).
  CachedCompile get_or_compile(const std::string& source,
                               bool* hit = nullptr) {
    return get_or_compile(source, CompileOptions{}, hit);
  }

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_bytes_; }

  /// Estimated resident footprint of the cached entries (charged_bytes
  /// summed over residents).
  [[nodiscard]] std::size_t resident_bytes() const;

  /// Drops every entry (stats are kept).
  void clear();

  /// Re-charges `source`'s entry against the byte budget, folding in
  /// state attached to the CompiledProgram after compilation — today the
  /// sealed JIT code memoized by a Backend::kJit run. No-op when the
  /// entry is gone, still compiling, or unchanged; may evict LRU-tail
  /// entries when the new charge pushes the cache over budget.
  void recharge(const std::string& source, const CompileOptions& opts = {});

 private:
  struct Entry {
    // Collision guard: full text + options compared on hit, so a true
    // 64-bit key collision can never hand back the wrong program.
    std::string source;
    CompileOptions opts;
    std::shared_future<CachedCompile> result;
    std::list<std::uint64_t>::iterator lru_pos;
    std::size_t bytes = 0;  // charged_bytes(source.size()) at insertion
  };

  void evict_while_over_budget_locked();

  std::size_t capacity_;
  std::size_t capacity_bytes_;
  mutable std::mutex m_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::size_t resident_bytes_ = 0;
  Stats stats_;
};

}  // namespace lol::service
