#include "spans.hpp"

#include <algorithm>
#include <utility>

namespace e2e {

SpanRecorder::SpanRecorder() : origin_{std::chrono::steady_clock::now()} {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::begin(std::string name, int parent) {
  const double start = now();
  std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(Span{std::move(name), start, start, parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  const double stop = now();
  std::lock_guard<std::mutex> lock{mutex_};
  spans_[static_cast<std::size_t>(id)].endS = stop;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return spans_;
}

bool writeSpansJsonl(const std::string& path,
                     const std::vector<std::vector<Span>>& rounds) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (std::size_t i = 0; i < rounds[r].size(); ++i) {
      const Span& span = rounds[r][i];
      std::fprintf(file,
                   "{\"round\":%zu,\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                   "\"end_s\":%.9f,\"parent\":%d}\n",
                   r, i, span.name.c_str(), span.startS, span.endS, span.parent);
    }
  }
  return std::fclose(file) == 0;
}

double selfTime(const std::vector<Span>& spans, std::size_t index) {
  const Span& span = spans[index];
  std::vector<std::pair<double, double>> children;
  for (const Span& child : spans) {
    if (child.parent != static_cast<int>(index)) continue;
    const double lo = std::max(child.startS, span.startS);
    const double hi = std::min(child.endS, span.endS);
    if (hi > lo) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.startS;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (span.endS - span.startS) - covered;
}

std::map<std::string, NameTotals> totalsByName(const std::vector<Span>& spans) {
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& entry = totals[spans[i].name];
    entry.selfS += selfTime(spans, i);
    entry.totalS += spans[i].endS - spans[i].startS;
    ++entry.count;
  }
  return totals;
}

}  // namespace e2e
