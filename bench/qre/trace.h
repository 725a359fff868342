// Span recording for the benchmark's traced runs (README.md, "Tracing").
//
// Spans are recorded from the benchmark's own code around its calls into
// each layer, kept in memory, and written once at the end as Chrome Trace
// Event JSON (chrome://tracing and Perfetto open it offline). Spans of one
// R_out request share its request id, which becomes the event's thread id
// so each request renders as its own track.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace fastqre::benchqre {

struct Span {
  const char* name = "";
  const char* layer = "";
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  /// Extra JSON members for the event's "args" object, without braces
  /// (e.g. "\"verdict\":\"generating\""); may be empty.
  std::string args;
};

class SpanRecorder {
 public:
  /// Spans beyond this many are counted but not kept, bounding memory on
  /// long traced runs; the aggregate metrics never depend on kept spans.
  static constexpr size_t kMaxSpans = 400000;

  SpanRecorder() : epoch_(Clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  using Clock = std::chrono::steady_clock;

  /// Nanoseconds from the recorder's creation to `t`.
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  int64_t NowNs() const { return ToNs(Clock::now()); }

  /// A fresh request id; thread-safe.
  uint64_t NewRequest() {
    MutexLock lock(&mu_);
    return ++last_request_;
  }

  /// Thread-safe.
  void Add(Span span) {
    MutexLock lock(&mu_);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(std::move(span));
    } else {
      ++dropped_;
    }
  }

  /// Writes every kept span as Chrome Trace Event JSON ("X" events,
  /// microsecond timestamps).
  Status WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return Status::IOError("cannot write " + path);
    MutexLock lock(&mu_);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"request\":%llu%s%s}}",
                   i == 0 ? "" : ",\n", s.name, s.layer,
                   static_cast<unsigned long long>(s.request),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   s.args.empty() ? "" : ",", s.args.c_str());
    }
    std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0 ? Status::OK()
                               : Status::IOError("cannot write " + path);
  }

 private:
  const Clock::time_point epoch_;
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  uint64_t last_request_ GUARDED_BY(mu_) = 0;
};

}  // namespace fastqre::benchqre
