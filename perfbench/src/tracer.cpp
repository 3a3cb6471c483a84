#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
      .count();
}

int Tracer::begin(std::string name, std::uint64_t job, int parent) {
  const double t = now_ms();
  return add(std::move(name), job, parent, t, t);
}

void Tracer::end(int id) { spans_[static_cast<std::size_t>(id)].end_ms = now_ms(); }

int Tracer::add(std::string name, std::uint64_t job, int parent,
                double start_ms, double end_ms) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), job, parent, start_ms, end_ms});
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<std::size_t>(parent)].push_back(id);
  return id;
}

double Tracer::self_ms(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> cover;
  for (int c : children_[static_cast<std::size_t>(id)]) {
    const Span& k = spans_[static_cast<std::size_t>(c)];
    const double a = std::max(k.start_ms, s.start_ms);
    const double b = std::min(k.end_ms, s.end_ms);
    if (b > a) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double reach = s.start_ms;
  for (const auto& [a, b] : cover) {
    const double from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return s.dur_ms() - covered;
}

void Tracer::write_jsonl(std::FILE* out, int tracer_id) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"tracer\":%d,\"id\":%zu,\"parent\":%d,\"job\":%llu,"
                 "\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 tracer_id, i, s.parent,
                 static_cast<unsigned long long>(s.job), s.name.c_str(),
                 s.start_ms, s.end_ms);
  }
}

}  // namespace perfbench
