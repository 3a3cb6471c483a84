// Measurement-driven auto-tuner for runtime knobs.
//
// The engine exposes several knobs whose best setting depends on the
// workload, not the program semantics: the combining-tree barrier radix,
// the executor kind (thread / pool / fiber), and fiber PE packing.
// calibrate() finds a good combination by timing short real runs of the
// compiled program and persists the winner in a TunerStore keyed by
// (program hash, n_pes), so the service can apply it on warm hits and
// `lolrun --tune` can report it. Results are byte-identical across every
// knob setting by construction (see RunConfig), so tuning never changes
// program output — only wall-clock.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace lol {
struct CompiledProgram;
}

namespace lol::opt {

/// A tuned knob assignment. Zero / empty fields mean "no preference":
/// the service only applies a knob the submitting job left at default.
struct TunedKnobs {
  int barrier_radix = 0;     // 0 = auto
  std::string executor;      // "" = unset; else thread | pool | fiber
  int pes_per_thread = 0;    // fiber packing; 0 = auto

  [[nodiscard]] bool any() const {
    return barrier_radix != 0 || !executor.empty() || pes_per_thread != 0;
  }
};

/// Durable tuned-knob store: a line-per-entry text file
/// (`v1 <hash> <n_pes> <radix> <executor|-> <ppt>`; v2 lines from older
/// stores still load, their trailing unroll-cap field ignored), small
/// enough to rewrite whole on every store. Thread-safe; concurrent processes last-writer-win,
/// which is fine for measurements of the same workload.
class TunerStore {
 public:
  explicit TunerStore(std::string path);

  [[nodiscard]] std::optional<TunedKnobs> lookup(std::uint64_t program_hash,
                                                 int n_pes) const;
  void store(std::uint64_t program_hash, int n_pes, const TunedKnobs& k);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::mutex m_;
};

/// Times short real runs of `prog` over the knob grid and returns the
/// fastest combination, persisting it in `store` (when non-null) under
/// replay::fnv1a(source) and n_pes. Runs are capped by a step budget so
/// calibration terminates even on hostile programs; programs that need
/// stdin simply run their GIMMEHs against empty input, which is still a
/// valid relative timing signal.
TunedKnobs calibrate(const CompiledProgram& prog, std::string_view source,
                     int n_pes, TunerStore* store);

}  // namespace lol::opt
