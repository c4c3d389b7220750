// Shared plumbing of the benchmark driver: run options, the result line,
// order statistics, and the span recorder of traced runs.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "wire/message.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test only: the name of one oracle to feed a corrupted answer
  /// (see README "Self-test"). Empty in measured runs.
  std::string corrupt;
  /// Directory for span dumps, WAL files and sockets (relative to the
  /// working directory, which is the checkout root).
  std::string out_dir = ".bench_out";
  /// Reference measurements only (sharded_service): client count (0 keeps
  /// the workload's own) and whether the result cache is on.
  size_t clients = 0;
  bool cache = true;
};

/// What one workload run hands back to main: the verdict, the operation
/// counts, and its metrics by name (end-to-end names in untraced runs,
/// per-layer names in traced runs).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// One line per failed oracle check, printed before the result line.
  std::vector<std::string> errors;

  void Fail(const std::string& what);
};

RunResult RunPaperGrid(const RunOptions& options);
RunResult RunShardedService(const RunOptions& options);
RunResult RunMutateRead(const RunOptions& options);

/// Order statistics over a sample (linear interpolation between ranks).
/// Empty samples yield 0.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One client's latency samples, cut into fixed slices of the measurement
/// window and reduced slice by slice, so memory stays bounded by one
/// slice. Samples must arrive in time order.
class SlicedLatencies {
 public:
  struct Slice {
    size_t index = 0;
    size_t count = 0;
    double rate = 0.0;  // Completions per second within the slice.
    double p50_ms = 0.0;
    double p95_ms = 0.0;
  };

  explicit SlicedLatencies(double slice_seconds)
      : slice_seconds_(slice_seconds) {}

  /// `t_seconds`: completion time since the window opened.
  void Add(double t_seconds, double ms);
  /// Reduces the open slice and returns every slice seen.
  const std::vector<Slice>& Finish();

 private:
  void Reduce();

  double slice_seconds_;
  size_t current_ = 0;
  double first_t_ = 0.0;
  double last_t_ = 0.0;
  std::vector<double> samples_;
  std::vector<Slice> slices_;
};

/// End-to-end latency and throughput of a window from its clients' slices:
/// the median over (client, slice) of each slice's p50 and p95, and the
/// median over slices of the clients' summed completion rates. Only the
/// `full_slices` slices that lie wholly inside the window count, so
/// transient interference moves a few slices, not the result.
struct WindowMetrics {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double per_second = 0.0;
};
WindowMetrics Summarize(std::vector<SlicedLatencies>* clients,
                        size_t full_slices);

/// Slice length of every workload's measurement window.
inline constexpr double kSliceSeconds = 1.0;
inline size_t FullSlices(double window_seconds) {
  return static_cast<size_t>(window_seconds / kSliceSeconds);
}

/// Peak resident set of this process in MB (getrusage high-water mark).
double SelfPeakRssMb();
/// Peak resident set of another live process in MB (VmHWM), 0 if unknown.
double ProcessPeakRssMb(int pid);

/// One client's reply slot on TopologyService::Submit(WireRequest,
/// StreamSink&), which delivers exactly one frame per request.
class ReplySink : public tsb::wire::StreamSink {
 public:
  void OnFrame(const tsb::wire::WireFrame& frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    reply_ = frame.response;
    ready_ = true;
    cv_.notify_one();
  }

  tsb::wire::WireResponse Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this]() { return ready_; });
    ready_ = false;
    return std::move(reply_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;
  tsb::wire::WireResponse reply_;
};

/// Spans of a traced run, recorded from the benchmark's own code around
/// each call into a layer: name, start, end, parent span, and the request
/// the span belongs to. Kept in memory; written out when the run ends.
class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 for a root span.
    uint64_t request = 0;
    std::string name;
    std::string tag;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Memory bound of one run: spans beyond it are dropped and counted.
  static constexpr size_t kMaxSpans = 1000000;

  /// Opens a span and returns its id (0 when disabled or full).
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request,
                 const std::string& tag = "");
  /// Closes span `id` (no-op for 0).
  void End(uint64_t id);

  /// Duration in milliseconds of closed span `id` (0 for id 0).
  double DurationMs(uint64_t id) const;

  /// Duration in milliseconds of every closed span named `name` (and with
  /// tag `tag` when non-empty), in recording order.
  std::vector<double> DurationsMs(const std::string& name,
                                  const std::string& tag = "") const;

  /// Per span name: total self time (duration minus the time its child
  /// spans cover) and span count.
  struct SelfTime {
    double total_ms = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  size_t size() const;
  uint64_t dropped() const;

  /// Writes one JSON object per span to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  tsb::Stopwatch clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Index = id - 1.
  uint64_t dropped_ = 0;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             uint64_t parent, uint64_t request, const std::string& tag = "")
      : recorder_(recorder),
        id_(recorder->Begin(name, parent, request, tag)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

/// Prints the self-time table of a traced run and adds the span count to
/// `result`; writes the span dump under options.out_dir.
void FinishTrace(const RunOptions& options, const SpanRecorder& spans,
                 RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
