#ifndef TSB_OBS_TRACE_H_
#define TSB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"

namespace tsb {
namespace obs {

/// Distributed tracing for the query path: one sampled query produces one
/// trace — a tree of spans covering every stage it crosses (admission
/// queue, cache lookup, scatter fan-out, per-replica attempts, shard-side
/// execution, k-way merge). The trace context rides the wire inside
/// kQueryRequest frames (wire v4), shard servers return their spans
/// piggybacked on the kQueryResponse frame, and the frontend assembles the
/// complete cross-process tree.
///
/// Clocks: spans carry a wall-clock start (system_clock, seconds since the
/// Unix epoch) and a duration measured on the monotonic clock. There is no
/// cross-process clock synchronization — the tree structure (span ids) is
/// exact, wall-clock starts are aligned only as well as the hosts' clocks.

/// The context one request carries on the wire: which trace it belongs to
/// and which span is its parent on the sending side. Empty (sampled=false,
/// ids 0) for untraced traffic and for every pre-v4 frame.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;

  bool active() const { return sampled && trace_id != 0; }
};

/// One completed stage of a traced query. `tags` is a compact
/// comma-separated "key=value" list (free-form; renderers print it
/// verbatim). Parent/child links are by span id; a span whose parent id
/// is unknown to the assembled trace renders at the root level.
struct Span {
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  std::string tags;
  double start_unix_seconds = 0.0;
  double duration_seconds = 0.0;
  /// Thread CPU actually burned inside this span (obs::CostTracker), so a
  /// span that waited can be told apart from one that computed. 0 when
  /// the stage carries no CPU attribution (queue waits, rpc waits) and
  /// for spans decoded from pre-v6 frames.
  uint64_t cpu_ns = 0;
};

/// Makes a free-form string safe to embed as one tag value in a span's
/// comma-separated "key=value" list: commas become ';', newlines and
/// brackets become spaces. Used for error messages on failed spans.
std::string TagValueSafe(std::string_view value);

/// Process-unique non-zero 64-bit ids (shared generator for trace and
/// span ids): an atomic counter seeded from the clock and pid, whitened
/// through SplitMix64 so ids from different processes collide with
/// negligible probability. Thread-safe.
uint64_t NewTraceId();
uint64_t NewSpanId();

/// Wall-clock now, seconds since the Unix epoch.
double UnixSeconds();

/// Span-list codec (the piggyback payload of wire query responses):
/// u32 count, then per span: span_id u64, parent u64, name string,
/// tags string, start f64, duration f64, cpu_ns u64. DecodeSpans
/// validates the count against the remaining payload before any
/// allocation, so a corrupted count fails fast instead of reserving
/// gigabytes.
void EncodeSpans(const std::vector<Span>& spans, std::string* out);
Status DecodeSpans(BinaryReader* in, std::vector<Span>* out);

/// One query's trace under assembly: the root span plus every stage span,
/// local and absorbed from shard responses. Held by shared_ptr and
/// internally locked, because span producers (hedge-loser replica
/// attempts, abandoned transport futures) can outlive the query that
/// started the trace — a late AddSpan after Finish is safe and simply
/// lands in the recorded trace.
class QueryTrace {
 public:
  /// Starts a trace with a fresh root span named `root_name`; the root's
  /// start is now, its duration is set by Finish. A non-zero
  /// `root_parent_span_id` hangs this trace's root under an upstream span
  /// (cross-process propagation).
  QueryTrace(uint64_t trace_id, std::string root_name,
             uint64_t root_parent_span_id = 0);

  uint64_t trace_id() const { return trace_id_; }
  uint64_t root_span_id() const { return root_span_id_; }

  /// The context to stamp into a sub-request parented under `parent`.
  TraceContext ContextUnder(uint64_t parent_span_id) const {
    TraceContext context;
    context.trace_id = trace_id_;
    context.parent_span_id = parent_span_id;
    context.sampled = true;
    return context;
  }

  /// Records one completed span and returns its (freshly drawn) id.
  /// `cpu_ns` is the stage's thread-CPU bill when the caller measured one.
  uint64_t AddSpan(std::string name, uint64_t parent_span_id,
                   double start_unix_seconds, double duration_seconds,
                   std::string tags = std::string(), uint64_t cpu_ns = 0);

  /// Records a span whose id the caller drew up front (a scatter rpc span
  /// allocates its id before the sub-request is encoded, so the shard's
  /// spans can name it as parent before the rpc span itself completes).
  void AddSpanWithId(Span span);

  /// Absorbs externally produced spans verbatim (the shard piggyback).
  void Absorb(std::vector<Span> spans);

  /// Closes the root span. Idempotent (last call wins).
  void Finish(double duration_seconds);

  /// All spans, root first (stable snapshot).
  std::vector<Span> Spans() const;

  size_t size() const;

 private:
  const uint64_t trace_id_;
  const uint64_t root_span_id_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[0] is the root.
};

/// Renders an assembled span list as an indented tree, children under
/// their parents in recording order; orphaned parents render at the root
/// level so a partial trace still prints every span.
std::string FormatSpanTree(const std::vector<Span>& spans);

struct TracerConfig {
  /// Sampling rate: trace 1 in every `sample_every` queries. 0 disables
  /// local sampling entirely (propagated contexts still trace).
  uint32_t sample_every = 0;
  /// Finished traces retained for the admin channel / dumps.
  size_t max_recent = 32;
};

/// The per-process trace controller: makes the sampling decision, hands
/// out QueryTrace instances, and retains the most recent finished traces
/// for the admin channel. Thread-safe; the sampling knob is hot-mutable
/// (benches toggle it between phases).
class Tracer {
 public:
  explicit Tracer(TracerConfig config = TracerConfig{});

  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  void set_sample_every(uint32_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }

  /// Starts a trace when sampling selects this query, else null. When
  /// `inherited` is active the decision is already made upstream: the
  /// trace adopts the inherited trace id (its root is parented under the
  /// inherited parent span).
  std::shared_ptr<QueryTrace> StartTrace(std::string root_name);
  std::shared_ptr<QueryTrace> StartTrace(std::string root_name,
                                         const TraceContext& inherited);

  /// Retains a finished trace in the recent ring.
  void Record(const std::shared_ptr<QueryTrace>& trace);

  /// Most recent finished traces, oldest first.
  std::vector<std::shared_ptr<QueryTrace>> Recent() const;

  uint64_t traces_started() const {
    return started_.load(std::memory_order_relaxed);
  }
  uint64_t traces_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Every retained trace as "trace <id> ..." headers + span trees.
  std::string RenderRecent() const;

 private:
  std::atomic<uint32_t> sample_every_;
  const size_t max_recent_;
  std::atomic<uint64_t> decision_counter_{0};
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> recorded_{0};
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<QueryTrace>> recent_;
};

}  // namespace obs
}  // namespace tsb

#endif  // TSB_OBS_TRACE_H_
