// The benchmark's own span tracer.
//
// Spans are recorded in memory from two sources: the benchmark's code,
// around each call into a layer's public functions (ScopedSpan), and the
// engine's GTS_PROF_SCOPE hooks, which report only (name, seconds) when a
// scope ends (ProfSinkAdapter). A span's parent is the innermost span on
// the same thread whose interval contains it; parents are resolved by
// containment once recording stops, so both sources nest the same way.
#ifndef GTSBENCH_TRACER_H_
#define GTSBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/prof.h"

namespace gtsbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the tracer was constructed
  double end_us = 0.0;
  int parent = -1;        ///< index into Tracer::spans(); -1 = root
  int64_t op = -1;        ///< op id; -1 for set-up and phase spans
  int tid = 0;            ///< small per-thread index
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Recording is off until enabled; a disabled tracer records nothing.
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Op id stamped on spans that are recorded from now on.
  void set_op(int64_t op) { op_.store(op); }

  /// Opens a span on the calling thread; pass the handle to Close().
  int Open(std::string_view name);
  void Close(int handle);

  /// Adds a span that ended at `end` after running `seconds`.
  void AddEnded(std::string_view name, Clock::time_point end,
                double seconds);

  /// Sets every span's parent by containment on its thread. A child that
  /// ends after its parent -- by timer skew between the two sources --
  /// is clipped to the parent; the largest clip is returned in
  /// microseconds.
  double ResolveParents();

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name, the summed self time in milliseconds (duration minus
  /// the time its direct children cover) of spans with op id >= min_op.
  /// Call after ResolveParents().
  std::map<std::string, double> SelfMs(int64_t min_op) const;

  /// Writes the spans as Chrome trace_event JSON (complete "X" events;
  /// args carry the span index, parent index and op id).
  gts::Status WriteChromeTrace(const std::string& path,
                               const std::map<std::string, std::string>&
                                   metadata) const;

 private:
  double MicrosSinceEpoch(Clock::time_point t) const;
  static int ThreadIndex();

  const Clock::time_point epoch_;
  // Read by profiling scopes, which may end on any thread.
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> op_{-1};
  std::mutex mu_;  // guards spans_ (prof scopes may end on any thread)
  std::vector<Span> spans_;
};

/// RAII span around a call into one layer; no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        handle_(tracer_ != nullptr ? tracer_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(handle_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int handle_;
};

/// Feeds the engine's GTS_PROF_SCOPE hooks into a Tracer: a scope that
/// ends now after `seconds` started at now - seconds.
class ProfSinkAdapter final : public gts::obs::ProfSink {
 public:
  explicit ProfSinkAdapter(Tracer* tracer) : tracer_(tracer) {}
  void OnScope(const char* name, double seconds) override {
    tracer_->AddEnded(name, Clock::now(), seconds);
  }

 private:
  Tracer* tracer_;
};

}  // namespace gtsbench

#endif  // GTSBENCH_TRACER_H_
