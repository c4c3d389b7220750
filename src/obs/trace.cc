#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace tsb {
namespace obs {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t IdSeed() {
  const uint64_t nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  return SplitMix64(nanos ^ (static_cast<uint64_t>(::getpid()) << 32));
}

uint64_t NewId() {
  static std::atomic<uint64_t> counter{IdSeed()};
  const uint64_t id = SplitMix64(counter.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;
}

// Minimum encoded size of one span: two u64 ids, two u32 string lengths,
// two f64 times, and the cpu_ns u64. Used to bound a decoded span count
// before allocation.
constexpr size_t kMinEncodedSpanBytes = 8 + 8 + 4 + 4 + 8 + 8 + 8;

}  // namespace

std::string TagValueSafe(std::string_view value) {
  std::string out(value);
  for (char& c : out) {
    if (c == ',') c = ';';
    if (c == '\n' || c == '[' || c == ']') c = ' ';
  }
  return out;
}

uint64_t NewTraceId() { return NewId(); }
uint64_t NewSpanId() { return NewId(); }

double UnixSeconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void EncodeSpans(const std::vector<Span>& spans, std::string* out) {
  PutU32(out, static_cast<uint32_t>(spans.size()));
  for (const Span& span : spans) {
    PutU64(out, span.span_id);
    PutU64(out, span.parent_span_id);
    PutString(out, span.name);
    PutString(out, span.tags);
    PutF64(out, span.start_unix_seconds);
    PutF64(out, span.duration_seconds);
    PutU64(out, span.cpu_ns);
  }
}

Status DecodeSpans(BinaryReader* in, std::vector<Span>* out) {
  const uint32_t count = in->U32();
  if (!in->ok()) return in->status("span list count");
  if (static_cast<size_t>(count) * kMinEncodedSpanBytes > in->remaining()) {
    return Status::InvalidArgument("span list count exceeds payload");
  }
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count && in->ok(); ++i) {
    Span span;
    span.span_id = in->U64();
    span.parent_span_id = in->U64();
    span.name = in->String();
    span.tags = in->String();
    span.start_unix_seconds = in->F64();
    span.duration_seconds = in->F64();
    span.cpu_ns = in->U64();
    if (in->ok()) out->push_back(std::move(span));
  }
  if (!in->ok()) return in->status("span list");
  return Status::OK();
}

QueryTrace::QueryTrace(uint64_t trace_id, std::string root_name,
                       uint64_t root_parent_span_id)
    : trace_id_(trace_id), root_span_id_(NewSpanId()) {
  Span root;
  root.span_id = root_span_id_;
  root.parent_span_id = root_parent_span_id;
  root.name = std::move(root_name);
  root.start_unix_seconds = UnixSeconds();
  spans_.push_back(std::move(root));
}

uint64_t QueryTrace::AddSpan(std::string name, uint64_t parent_span_id,
                             double start_unix_seconds,
                             double duration_seconds, std::string tags,
                             uint64_t cpu_ns) {
  Span span;
  span.span_id = NewSpanId();
  span.parent_span_id = parent_span_id;
  span.name = std::move(name);
  span.tags = std::move(tags);
  span.start_unix_seconds = start_unix_seconds;
  span.duration_seconds = duration_seconds;
  span.cpu_ns = cpu_ns;
  const uint64_t id = span.span_id;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return id;
}

void QueryTrace::AddSpanWithId(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void QueryTrace::Absorb(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Span& span : spans) spans_.push_back(std::move(span));
}

void QueryTrace::Finish(double duration_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[0].duration_seconds = duration_seconds;
}

std::vector<Span> QueryTrace::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t QueryTrace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string FormatSpanTree(const std::vector<Span>& spans) {
  // Children grouped by parent id, preserving recording order within a
  // parent. A span whose parent is absent from the list is a root.
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].span_id, i);
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t parent = spans[i].parent_span_id;
    if (parent != 0 && by_id.count(parent) && by_id[parent] != i) {
      children[parent].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  std::string out;
  std::vector<bool> printed(spans.size(), false);
  // Depth-first, iterative to stay robust against pathological depth.
  std::vector<std::pair<size_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    if (printed[index]) continue;
    printed[index] = true;
    const Span& span = spans[index];
    char line[256];
    std::snprintf(line, sizeof(line), "%*s%s  %.3fms", depth * 2, "",
                  span.name.c_str(), span.duration_seconds * 1e3);
    out += line;
    if (span.cpu_ns > 0) {
      std::snprintf(line, sizeof(line), " (cpu %.3fms)",
                    static_cast<double>(span.cpu_ns) / 1e6);
      out += line;
    }
    if (!span.tags.empty()) {
      out += "  [";
      out += span.tags;
      out += "]";
    }
    std::snprintf(line, sizeof(line), "  (span %016llx parent %016llx)\n",
                  static_cast<unsigned long long>(span.span_id),
                  static_cast<unsigned long long>(span.parent_span_id));
    out += line;
    auto kids = children.find(span.span_id);
    if (kids != children.end()) {
      for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it) {
        if (!printed[*it]) stack.emplace_back(*it, depth + 1);
      }
    }
  }
  return out;
}

Tracer::Tracer(TracerConfig config)
    : sample_every_(config.sample_every),
      max_recent_(config.max_recent == 0 ? 1 : config.max_recent) {}

std::shared_ptr<QueryTrace> Tracer::StartTrace(std::string root_name) {
  const uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return nullptr;
  const uint64_t tick = decision_counter_.fetch_add(1, std::memory_order_relaxed);
  if (tick % every != 0) return nullptr;
  started_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<QueryTrace>(NewTraceId(), std::move(root_name));
}

std::shared_ptr<QueryTrace> Tracer::StartTrace(std::string root_name,
                                               const TraceContext& inherited) {
  if (!inherited.active()) return StartTrace(std::move(root_name));
  started_.fetch_add(1, std::memory_order_relaxed);
  // The adopted root hangs under the upstream parent so a cross-process
  // assembly keeps one consistent tree.
  return std::make_shared<QueryTrace>(inherited.trace_id, std::move(root_name),
                                      inherited.parent_span_id);
}

void Tracer::Record(const std::shared_ptr<QueryTrace>& trace) {
  if (trace == nullptr) return;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(trace);
  while (recent_.size() > max_recent_) recent_.pop_front();
}

std::vector<std::shared_ptr<QueryTrace>> Tracer::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::shared_ptr<QueryTrace>>(recent_.begin(),
                                                  recent_.end());
}

std::string Tracer::RenderRecent() const {
  std::string out;
  for (const auto& trace : Recent()) {
    char header[96];
    std::snprintf(header, sizeof(header), "trace %016llx  %zu spans\n",
                  static_cast<unsigned long long>(trace->trace_id()),
                  trace->size());
    out += header;
    out += FormatSpanTree(trace->Spans());
  }
  return out;
}

}  // namespace obs
}  // namespace tsb
