// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end, parent span
// and the job it belongs to. Spans stay in memory while the run is
// timed; write_jsonl() dumps them once the run has ended. Each client
// thread owns its own Tracer, so recording takes no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t job = 0;
  int parent = -1;  // index into the same Tracer's spans, -1 for a root
  double start_ms = 0.0;  // offset from the tracer's epoch
  double end_ms = 0.0;

  [[nodiscard]] double dur_ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span now; returns its id for end() and as a parent.
  int begin(std::string name, std::uint64_t job, int parent = -1);
  void end(int id);

  /// Records a span whose bounds were measured elsewhere (the Service's
  /// own JobResult::trace phases).
  int add(std::string name, std::uint64_t job, int parent, double start_ms,
          double end_ms);

  [[nodiscard]] double now_ms() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `id` minus the part of it its children cover.
  [[nodiscard]] double self_ms(int id) const;

  /// Appends every span as one JSON object per line.
  void write_jsonl(std::FILE* out, int tracer_id) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

}  // namespace perfbench
