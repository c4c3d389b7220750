#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

void RunResult::Fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void SlicedLatencies::Add(double t_seconds, double ms) {
  const size_t index = static_cast<size_t>(t_seconds / slice_seconds_);
  if (index != current_) {
    Reduce();
    current_ = index;
  }
  if (samples_.empty()) first_t_ = t_seconds;
  last_t_ = t_seconds;
  samples_.push_back(ms);
}

void SlicedLatencies::Reduce() {
  if (samples_.empty()) return;
  Slice slice;
  slice.index = current_;
  slice.count = samples_.size();
  // Completions per second between the slice's first and last completion.
  slice.rate = samples_.size() > 1 && last_t_ > first_t_
                   ? static_cast<double>(samples_.size() - 1) /
                         (last_t_ - first_t_)
                   : 0.0;
  slice.p50_ms = Quantile(samples_, 0.5);
  slice.p95_ms = Quantile(samples_, 0.95);
  slices_.push_back(slice);
  samples_.clear();
}

const std::vector<SlicedLatencies::Slice>& SlicedLatencies::Finish() {
  Reduce();
  return slices_;
}

WindowMetrics Summarize(std::vector<SlicedLatencies>* clients,
                        size_t full_slices) {
  std::vector<double> p50, p95;
  std::vector<double> rates(full_slices, 0.0);
  for (SlicedLatencies& client : *clients) {
    for (const SlicedLatencies::Slice& slice : client.Finish()) {
      if (slice.index >= full_slices) continue;
      p50.push_back(slice.p50_ms);
      p95.push_back(slice.p95_ms);
      rates[slice.index] += slice.rate;
    }
  }
  WindowMetrics out;
  out.p50_ms = Median(p50);
  out.p95_ms = Median(p95);
  out.per_second = Median(rates);
  return out;
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

double ProcessPeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent,
                             uint64_t request, const std::string& tag) {
  if (!enabled_) return 0;
  const int64_t now = clock_.ElapsedNanos();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() == kMaxSpans) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.tag = tag;
  span.start_ns = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = clock_.ElapsedNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

double SpanRecorder::DurationMs(uint64_t id) const {
  if (id == 0) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& span = spans_[id - 1];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name,
                                              const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name != name || (!tag.empty() && span.tag != tag)) continue;
    out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::SelfTimes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span never overlap each other (each layer call is
  // synchronous), so the covered part of a parent is the sum of its
  // children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_ns[span.parent - 1] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    SelfTime& self = out[span.name];
    self.total_ms +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
    ++self.count;
  }
  return out;
}

uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"tag\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 span.name.c_str(), span.tag.c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

void FinishTrace(const RunOptions& options, const SpanRecorder& spans,
                 RunResult* result) {
  std::printf("span self times (%zu spans, %llu dropped):\n", spans.size(),
              static_cast<unsigned long long>(spans.dropped()));
  for (const auto& [name, self] : spans.SelfTimes()) {
    std::printf("  %-28s count %8llu  self total %10.3f ms  mean %8.4f ms\n",
                name.c_str(), static_cast<unsigned long long>(self.count),
                self.total_ms,
                self.count > 0 ? self.total_ms / static_cast<double>(self.count)
                               : 0.0);
  }
  result->metrics["trace.spans"] = static_cast<double>(spans.size());
  const std::string path =
      options.out_dir + "/spans_" + options.workload + ".jsonl";
  if (!spans.WriteJsonLines(path)) {
    std::printf("warning: could not write %s\n", path.c_str());
  } else {
    std::printf("spans written to %s\n", path.c_str());
  }
}

}  // namespace perfbench
