#include "service/compile_cache.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "opt/opt.hpp"
#include "support/error.hpp"

namespace lol::service {

namespace {

/// Registry mirrors of the per-cache Stats (cold path: every update
/// already holds the cache mutex).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Gauge& resident_bytes;
  CacheMetrics()
      : hits(obs::Registry::global().counter(
            "lol_compile_cache_hits_total",
            "Compile-cache lookups served from a resident entry")),
        misses(obs::Registry::global().counter(
            "lol_compile_cache_misses_total",
            "Compile-cache lookups that had to compile")),
        evictions(obs::Registry::global().counter(
            "lol_compile_cache_evictions_total",
            "Entries evicted by the LRU count/byte budgets")),
        resident_bytes(obs::Registry::global().gauge(
            "lol_compile_cache_resident_bytes",
            "Estimated footprint of resident compile-cache entries")) {}
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

}  // namespace

std::uint64_t hash_source(std::string_view source) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (char c : source) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

std::uint64_t cache_key(std::string_view source, const CompileOptions& opts) {
  return opt::mix_hash(hash_source(source), opts.opt_level);
}

CompileCache::CompileCache(std::size_t capacity, std::size_t capacity_bytes)
    : capacity_(capacity == 0 ? 1 : capacity),
      capacity_bytes_(capacity_bytes) {}

CompileCache::~CompileCache() {
  cache_metrics().resident_bytes.sub(
      static_cast<std::int64_t>(resident_bytes_));
}

void CompileCache::evict_while_over_budget_locked() {
  // Evict from the LRU tail until both budgets hold, but never the
  // most recent entry: an over-budget source stays resident until the
  // next insertion instead of thrashing on every request for it.
  while (entries_.size() > 1 &&
         (entries_.size() > capacity_ ||
          (capacity_bytes_ != 0 && resident_bytes_ > capacity_bytes_))) {
    std::uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    resident_bytes_ -= it->second.bytes;
    cache_metrics().resident_bytes.sub(
        static_cast<std::int64_t>(it->second.bytes));
    entries_.erase(it);
    ++stats_.evictions;
    cache_metrics().evictions.inc();
  }
}

CachedCompile CompileCache::get_or_compile(const std::string& source,
                                           const CompileOptions& opts,
                                           bool* hit) {
  const std::uint64_t key = cache_key(source, opts);
  std::shared_future<CachedCompile> fut;
  std::promise<CachedCompile> mine;
  bool i_compile = false;

  {
    std::lock_guard<std::mutex> g(m_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.source == source &&
        it->second.opts.opt_level == opts.opt_level) {
      ++stats_.hits;
      cache_metrics().hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      fut = it->second.result;
      if (hit != nullptr) *hit = true;
    } else if (it != entries_.end()) {
      // True 64-bit collision: different source, same hash. Vanishingly
      // rare — compile uncached rather than evict the resident entry.
      ++stats_.misses;
      cache_metrics().misses.inc();
      if (hit != nullptr) *hit = false;
      i_compile = true;
    } else {
      ++stats_.misses;
      cache_metrics().misses.inc();
      if (hit != nullptr) *hit = false;
      i_compile = true;
      // Publish the future before compiling so concurrent requests for
      // the same source wait on it instead of compiling again.
      fut = mine.get_future().share();
      lru_.push_front(key);
      std::size_t bytes = charged_bytes(source.size());
      entries_.emplace(key, Entry{source, opts, fut, lru_.begin(), bytes});
      resident_bytes_ += bytes;
      cache_metrics().resident_bytes.add(static_cast<std::int64_t>(bytes));
      evict_while_over_budget_locked();
    }
  }

  if (!i_compile) return fut.get();

  CachedCompile out;
  try {
    out.program = std::make_shared<const CompiledProgram>(
        compile(source, opts));
  } catch (const std::exception& e) {
    // Mostly support::LolError; anything else still must resolve the
    // published future or concurrent waiters would hang.
    out.error = e.what();
  }
  if (fut.valid()) mine.set_value(out);  // collision path never published
  return out;
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> g(m_);
  return stats_;
}

std::size_t CompileCache::size() const {
  std::lock_guard<std::mutex> g(m_);
  return entries_.size();
}

std::size_t CompileCache::resident_bytes() const {
  std::lock_guard<std::mutex> g(m_);
  return resident_bytes_;
}

void CompileCache::recharge(const std::string& source,
                            const CompileOptions& opts) {
  const std::uint64_t key = cache_key(source, opts);
  std::lock_guard<std::mutex> g(m_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.source != source ||
      it->second.opts.opt_level != opts.opt_level) {
    return;
  }
  Entry& e = it->second;
  if (e.result.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return;
  }
  const CachedCompile& c = e.result.get();
  if (c.program == nullptr) return;
  std::size_t now = charged_bytes(source.size()) + c.program->jit_code_bytes();
  if (now == e.bytes) return;
  resident_bytes_ += now;
  resident_bytes_ -= e.bytes;
  cache_metrics().resident_bytes.add(static_cast<std::int64_t>(now) -
                                     static_cast<std::int64_t>(e.bytes));
  e.bytes = now;
  evict_while_over_budget_locked();
}

void CompileCache::clear() {
  std::lock_guard<std::mutex> g(m_);
  entries_.clear();
  lru_.clear();
  cache_metrics().resident_bytes.sub(
      static_cast<std::int64_t>(resident_bytes_));
  resident_bytes_ = 0;
}

}  // namespace lol::service
