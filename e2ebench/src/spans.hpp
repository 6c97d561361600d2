#pragma once
// In-memory spans recorded by the benchmark around its calls into the
// simulator's public API. Spans are only collected by the traced run; the
// untraced run never constructs a recorder.
//
// Recording is thread-safe (runner workers open spans concurrently) and
// costs one mutex-protected push per span; a sweep cell opens fewer than
// ten, so the overhead is a few microseconds per multi-second run.

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  double startS{0.0};  // seconds since the recorder's origin
  double endS{0.0};
  int parent{-1};  // index into the recorder's span list, -1 = root
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span and returns its id; close it with end(id).
  int begin(std::string name, int parent);
  void end(int id);

  std::vector<Span> spans() const;

 private:
  double now() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span; a null recorder makes it a no-op (id -1).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int parent)
      : recorder_{recorder},
        id_{recorder != nullptr ? recorder->begin(std::move(name), parent)
                                : -1} {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

// Writes every round's spans, one JSON object per line:
// {"round","id","name","start_s","end_s","parent"}. Times are relative to
// the start of their round.
bool writeSpansJsonl(const std::string& path,
                     const std::vector<std::vector<Span>>& rounds);

// Self time of one span: its duration minus the part of it that the union
// of its children covers. Children may overlap (parallel workers), so the
// covered length is taken over merged intervals, clipped to the parent.
double selfTime(const std::vector<Span>& spans, std::size_t index);

// Summed self time and summed duration per span name.
struct NameTotals {
  double selfS{0.0};
  double totalS{0.0};
  std::size_t count{0};
};
std::map<std::string, NameTotals> totalsByName(const std::vector<Span>& spans);

}  // namespace e2e
