// The observability subsystem (src/obs/): trace ids and span trees, the
// sampling tracer, the span-list wire codec and its corruption handling,
// the unified MetricsRegistry renderings (Prometheus text exposition and
// JSON), the slow-query ring, and the admin channel both at the struct
// level (HandleAdmin) and the frame level (HandleAdminFrame + codecs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "obs/admin.h"
#include "obs/cost.h"
#include "obs/fleet.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace tsb {
namespace {

// ---------------------------------------------------------------------------
// Ids and QueryTrace
// ---------------------------------------------------------------------------

TEST(TraceIdTest, IdsAreNonZeroAndDistinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t trace_id = obs::NewTraceId();
    const uint64_t span_id = obs::NewSpanId();
    EXPECT_NE(trace_id, 0u);
    EXPECT_NE(span_id, 0u);
    seen.insert(trace_id);
    seen.insert(span_id);
  }
  EXPECT_EQ(seen.size(), 2000u);
}

TEST(QueryTraceTest, RootFirstSpansAndFinishSetsRootDuration) {
  obs::QueryTrace trace(obs::NewTraceId(), "service.query");
  EXPECT_EQ(trace.size(), 1u);

  const uint64_t child =
      trace.AddSpan("execute", trace.root_span_id(), 1.0, 0.5, "ok=1");
  EXPECT_NE(child, 0u);
  trace.Finish(2.5);

  std::vector<obs::Span> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].span_id, trace.root_span_id());
  EXPECT_EQ(spans[0].name, "service.query");
  EXPECT_DOUBLE_EQ(spans[0].duration_seconds, 2.5);
  EXPECT_EQ(spans[1].span_id, child);
  EXPECT_EQ(spans[1].parent_span_id, trace.root_span_id());
  EXPECT_EQ(spans[1].tags, "ok=1");
}

TEST(QueryTraceTest, ContextUnderCarriesTraceIdAndParent) {
  obs::QueryTrace trace(42, "root");
  const uint64_t rpc_span = obs::NewSpanId();
  obs::TraceContext context = trace.ContextUnder(rpc_span);
  EXPECT_TRUE(context.active());
  EXPECT_EQ(context.trace_id, 42u);
  EXPECT_EQ(context.parent_span_id, rpc_span);
}

TEST(QueryTraceTest, AbsorbAndPreAllocatedIdsLinkCrossProcessSpans) {
  // The scatter pattern: the rpc span id is drawn before the sub-request
  // ships, the shard parents its spans under that id, and the rpc span
  // itself is recorded after the response returns.
  obs::QueryTrace trace(obs::NewTraceId(), "root");
  const uint64_t rpc_span_id = obs::NewSpanId();

  obs::Span shard_span;
  shard_span.span_id = obs::NewSpanId();
  shard_span.parent_span_id = rpc_span_id;
  shard_span.name = "shard.exec";
  trace.Absorb({shard_span});

  obs::Span rpc;
  rpc.span_id = rpc_span_id;
  rpc.parent_span_id = trace.root_span_id();
  rpc.name = "rpc";
  trace.AddSpanWithId(rpc);

  // The tree renders the shard span under the rpc span even though the
  // parent arrived after the child: root (depth 0) -> rpc (depth 1) ->
  // shard.exec (depth 2).
  const std::string tree = obs::FormatSpanTree(trace.Spans());
  EXPECT_NE(tree.find("\n  rpc"), std::string::npos) << tree;
  EXPECT_NE(tree.find("\n    shard.exec"), std::string::npos) << tree;
}

TEST(FormatSpanTreeTest, NestsChildrenAndKeepsOrphansVisible) {
  std::vector<obs::Span> spans;
  obs::Span root;
  root.span_id = 1;
  root.name = "root";
  spans.push_back(root);
  obs::Span child;
  child.span_id = 2;
  child.parent_span_id = 1;
  child.name = "child";
  child.tags = "k=v";
  spans.push_back(child);
  obs::Span grandchild;
  grandchild.span_id = 3;
  grandchild.parent_span_id = 2;
  grandchild.name = "grandchild";
  spans.push_back(grandchild);
  obs::Span orphan;
  orphan.span_id = 4;
  orphan.parent_span_id = 999;  // Unknown parent: renders at root level.
  orphan.name = "orphan";
  spans.push_back(orphan);

  const std::string tree = obs::FormatSpanTree(spans);
  EXPECT_NE(tree.find("root"), std::string::npos);
  EXPECT_NE(tree.find("  child"), std::string::npos) << tree;
  EXPECT_NE(tree.find("    grandchild"), std::string::npos) << tree;
  EXPECT_NE(tree.find("[k=v]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("\norphan"), std::string::npos) << tree;
  // Every span printed exactly once.
  EXPECT_EQ(std::count(tree.begin(), tree.end(), '\n'), 4);
}

// ---------------------------------------------------------------------------
// Tracer sampling
// ---------------------------------------------------------------------------

TEST(TracerTest, SampleEveryZeroDisablesLocalSampling) {
  obs::Tracer tracer;  // Default sample_every = 0.
  EXPECT_EQ(tracer.StartTrace("q"), nullptr);
  EXPECT_EQ(tracer.traces_started(), 0u);
}

TEST(TracerTest, SampleEveryOneTracesEverything) {
  obs::TracerConfig config;
  config.sample_every = 1;
  obs::Tracer tracer(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(tracer.StartTrace("q"), nullptr);
  }
  EXPECT_EQ(tracer.traces_started(), 10u);
}

TEST(TracerTest, SampleEveryNTracesOneInN) {
  obs::TracerConfig config;
  config.sample_every = 4;
  obs::Tracer tracer(config);
  size_t sampled = 0;
  for (int i = 0; i < 40; ++i) {
    if (tracer.StartTrace("q") != nullptr) ++sampled;
  }
  EXPECT_EQ(sampled, 10u);
}

TEST(TracerTest, InheritedContextBypassesSamplingAndAdoptsIds) {
  // A shard receiving a sampled sub-request must trace it even with local
  // sampling off — the decision was made upstream.
  obs::Tracer tracer;  // sample_every = 0.
  obs::TraceContext inherited;
  inherited.trace_id = 77;
  inherited.parent_span_id = 123;
  inherited.sampled = true;
  auto trace = tracer.StartTrace("shard.handle", inherited);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->trace_id(), 77u);
  EXPECT_EQ(trace->Spans()[0].parent_span_id, 123u);

  // An inactive context falls back to the local sampling decision.
  EXPECT_EQ(tracer.StartTrace("shard.handle", obs::TraceContext{}), nullptr);
}

TEST(TracerTest, RecentRingEvictsOldestAndRenders) {
  obs::TracerConfig config;
  config.sample_every = 1;
  config.max_recent = 2;
  obs::Tracer tracer(config);
  auto a = tracer.StartTrace("a");
  auto b = tracer.StartTrace("b");
  auto c = tracer.StartTrace("c");
  tracer.Record(a);
  tracer.Record(b);
  tracer.Record(c);
  tracer.Record(nullptr);  // No-op.

  auto recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0]->Spans()[0].name, "b");
  EXPECT_EQ(recent[1]->Spans()[0].name, "c");
  EXPECT_EQ(tracer.traces_recorded(), 3u);

  const std::string rendered = tracer.RenderRecent();
  EXPECT_NE(rendered.find("trace "), std::string::npos);
  EXPECT_NE(rendered.find("c  "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span-list codec
// ---------------------------------------------------------------------------

TEST(SpanCodecTest, RoundTripsByteIdentically) {
  std::vector<obs::Span> spans;
  obs::Span span;
  span.span_id = 0xdeadbeefcafef00dULL;
  span.parent_span_id = 7;
  span.name = "replica.attempt";
  span.tags = "shard=1,replica=0,hedge=1";
  span.start_unix_seconds = 1723100000.125;
  span.duration_seconds = 0.0625;
  spans.push_back(span);
  spans.push_back(obs::Span{});  // All-defaults span survives too.

  std::string bytes;
  obs::EncodeSpans(spans, &bytes);
  BinaryReader in(bytes);
  std::vector<obs::Span> decoded;
  ASSERT_TRUE(obs::DecodeSpans(&in, &decoded).ok());
  EXPECT_TRUE(in.AtEnd());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].span_id, span.span_id);
  EXPECT_EQ(decoded[0].name, span.name);
  EXPECT_EQ(decoded[0].tags, span.tags);

  std::string again;
  obs::EncodeSpans(decoded, &again);
  EXPECT_EQ(bytes, again);
}

TEST(SpanCodecTest, CorruptedCountFailsBeforeAllocation) {
  // A count claiming more spans than the payload can hold must be
  // rejected up front, not discovered after reserving gigabytes.
  std::string bytes;
  PutU32(&bytes, 0xffffffffu);
  BinaryReader in(bytes);
  std::vector<obs::Span> decoded;
  EXPECT_FALSE(obs::DecodeSpans(&in, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(SpanCodecTest, TruncatedSpanBodyFails) {
  std::vector<obs::Span> spans(2);
  spans[0].name = "a";
  spans[1].name = "b";
  std::string bytes;
  obs::EncodeSpans(spans, &bytes);
  for (size_t len = 4; len < bytes.size(); ++len) {
    const std::string truncated = bytes.substr(0, len);
    BinaryReader in(truncated);
    std::vector<obs::Span> decoded;
    EXPECT_FALSE(obs::DecodeSpans(&in, &decoded).ok()) << len;
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, RendersPrometheusFamiliesWithHeaders) {
  obs::CallbackSource source([](obs::MetricsSink* sink) {
    sink->Counter("tsb_requests_total", "Requests served.",
                  {{"method", "full-topk"}}, 12);
    sink->Counter("tsb_requests_total", "Requests served.",
                  {{"method", "fast-topk"}}, 3);
    sink->Gauge("tsb_queue_depth", "Queued requests.", {}, 5);
    obs::SummaryValue latency;
    latency.count = 100;
    latency.mean = 0.002;
    latency.p50 = 0.001;
    latency.p95 = 0.004;
    latency.p99 = 0.009;
    latency.max = 0.05;
    sink->Summary("tsb_latency_seconds", "Service latency.", {}, latency);
  });
  obs::MetricsRegistry registry;
  registry.Register(&source);
  EXPECT_EQ(registry.num_sources(), 1u);

  const std::string text = registry.RenderPrometheus();
  // One HELP/TYPE header per family, both samples under it.
  EXPECT_EQ(text.find("# HELP tsb_requests_total Requests served."),
            text.rfind("# HELP tsb_requests_total"));
  EXPECT_NE(text.find("# TYPE tsb_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("tsb_requests_total{method=\"full-topk\"} 12"),
            std::string::npos);
  EXPECT_NE(text.find("tsb_requests_total{method=\"fast-topk\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tsb_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("tsb_queue_depth 5"), std::string::npos);
  // Summaries expand to quantile-labelled samples plus _count and _sum.
  EXPECT_NE(text.find("tsb_latency_seconds{quantile=\"0.5\"} 0.001"),
            std::string::npos);
  EXPECT_NE(text.find("tsb_latency_seconds{quantile=\"0.99\"} 0.009"),
            std::string::npos);
  EXPECT_NE(text.find("tsb_latency_seconds_count 100"), std::string::npos);
  EXPECT_NE(text.find("tsb_latency_seconds_sum 0.2"), std::string::npos);

  registry.Unregister(&source);
  EXPECT_EQ(registry.num_sources(), 0u);
  EXPECT_EQ(registry.RenderPrometheus(), "");
}

TEST(MetricsRegistryTest, EscapesLabelValues) {
  obs::CallbackSource source([](obs::MetricsSink* sink) {
    sink->Gauge("tsb_gauge", "h", {{"path", "a\"b\\c\nd"}}, 1);
  });
  obs::MetricsRegistry registry;
  registry.Register(&source);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, DoubleRegisterIsIdempotent) {
  obs::CallbackSource source([](obs::MetricsSink* sink) {
    sink->Counter("tsb_once_total", "h", {}, 1);
  });
  obs::MetricsRegistry registry;
  registry.Register(&source);
  registry.Register(&source);
  EXPECT_EQ(registry.num_sources(), 1u);
  const std::string text = registry.RenderPrometheus();
  // The sample appears once, not twice.
  EXPECT_EQ(text.find("tsb_once_total 1"), text.rfind("tsb_once_total 1"));
  registry.Register(nullptr);  // No-op.
  EXPECT_EQ(registry.num_sources(), 1u);
}

TEST(MetricsRegistryTest, RendersJsonWithSummaryObjects) {
  obs::CallbackSource source([](obs::MetricsSink* sink) {
    sink->Counter("tsb_c", "h", {{"k", "v"}}, 2);
    obs::SummaryValue latency;
    latency.count = 4;
    latency.p99 = 0.5;
    sink->Summary("tsb_s", "h", {}, latency);
  });
  obs::MetricsRegistry registry;
  registry.Register(&source);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("{\"name\":\"tsb_c\",\"type\":\"counter\","
                      "\"labels\":{\"k\":\"v\"},\"value\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99\":0.5"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

// ---------------------------------------------------------------------------
// SlowQueryLog
// ---------------------------------------------------------------------------

TEST(SlowQueryLogTest, DisabledAtZeroThreshold) {
  obs::SlowQueryLog log;
  EXPECT_FALSE(log.enabled());
  EXPECT_DOUBLE_EQ(log.threshold_seconds(), 0.0);
}

TEST(SlowQueryLogTest, RingEvictsOldestFirst) {
  obs::SlowQueryConfig config;
  config.threshold_seconds = 0.001;
  config.capacity = 2;
  obs::SlowQueryLog log(config);
  EXPECT_TRUE(log.enabled());
  for (int i = 0; i < 3; ++i) {
    obs::SlowQueryRecord record;
    record.request = "TOPK set1=Protein set2=DNA k=" + std::to_string(i);
    record.service_seconds = 0.01 * (i + 1);
    log.Record(std::move(record));
  }
  auto recent = log.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_NE(recent[0].request.find("k=1"), std::string::npos);
  EXPECT_NE(recent[1].request.find("k=2"), std::string::npos);
  EXPECT_EQ(log.total_recorded(), 3u);
}

TEST(SlowQueryLogTest, ToStringCarriesTheStructuredFields) {
  obs::SlowQueryLog log(obs::SlowQueryConfig{0.001, 8});
  obs::SlowQueryRecord record;
  record.service_seconds = 0.25;
  record.queue_seconds = 0.01;
  record.request = "TOPK set1=Protein set2=DNA";
  record.method = "full-topk";
  record.plan = "scan | merge";
  record.rows_scanned = 1000;
  record.trace_id = 0xabcdef;
  record.span_tree = "root  250.000ms\n";
  log.Record(record);
  const std::string text = log.ToString();
  EXPECT_NE(text.find("TOPK set1=Protein set2=DNA"), std::string::npos);
  EXPECT_NE(text.find("full-topk"), std::string::npos);
  EXPECT_NE(text.find("scan | merge"), std::string::npos);
  EXPECT_NE(text.find("root  250.000ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Admin channel: codecs and handler
// ---------------------------------------------------------------------------

TEST(AdminCodecTest, RequestRoundTripsEveryCommand) {
  for (uint8_t c = 0; c <= wire::kMaxAdminCommand; ++c) {
    wire::AdminRequest request;
    request.command = static_cast<wire::AdminCommand>(c);
    std::string frame;
    wire::EncodeAdminRequest(request, &frame);
    auto kind = wire::PeekMessageKind(frame);
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(*kind, wire::MessageKind::kAdminRequest);
    auto decoded = wire::DecodeAdminRequest(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->command, request.command);
    std::string again;
    wire::EncodeAdminRequest(*decoded, &again);
    EXPECT_EQ(frame, again);
  }
}

TEST(AdminCodecTest, ResponseRoundTripsBodyAndError) {
  wire::AdminResponse response;
  response.body = "# HELP tsb_x h\ntsb_x 1\n";
  std::string frame;
  wire::EncodeAdminResponse(response, &frame);
  auto decoded = wire::DecodeAdminResponse(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->error.ok());
  EXPECT_EQ(decoded->body, response.body);

  wire::AdminResponse failed;
  failed.error = wire::WireError{wire::WireErrorCode::kInvalidRequest,
                                 "unknown admin command"};
  frame.clear();
  wire::EncodeAdminResponse(failed, &frame);
  decoded = wire::DecodeAdminResponse(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->error.code, wire::WireErrorCode::kInvalidRequest);
  EXPECT_EQ(decoded->error.message, "unknown admin command");
}

TEST(AdminCodecTest, CommandNamesRoundTrip) {
  for (uint8_t c = 0; c <= wire::kMaxAdminCommand; ++c) {
    const auto command = static_cast<wire::AdminCommand>(c);
    wire::AdminCommand parsed;
    ASSERT_TRUE(
        wire::ParseAdminCommand(wire::AdminCommandToString(command), &parsed))
        << wire::AdminCommandToString(command);
    EXPECT_EQ(parsed, command);
  }
  wire::AdminCommand ignored;
  EXPECT_FALSE(wire::ParseAdminCommand("warp9", &ignored));
  EXPECT_FALSE(wire::ParseAdminCommand("", &ignored));
}

TEST(AdminHandlerTest, PingAnswersEvenWithNoSurfaces) {
  obs::AdminState state;  // All members null.
  wire::AdminRequest request;
  request.command = wire::AdminCommand::kPing;
  wire::AdminResponse response = obs::HandleAdmin(state, request);
  EXPECT_TRUE(response.error.ok());
  EXPECT_EQ(response.body, "pong");

  // Absent surfaces answer with an empty body, never an error.
  for (uint8_t c = 1; c <= wire::kMaxAdminCommand; ++c) {
    request.command = static_cast<wire::AdminCommand>(c);
    response = obs::HandleAdmin(state, request);
    EXPECT_TRUE(response.error.ok()) << static_cast<int>(c);
    EXPECT_EQ(response.body, "") << static_cast<int>(c);
  }
}

TEST(AdminHandlerTest, ServesMetricsTracesAndSlowLog) {
  obs::CallbackSource source([](obs::MetricsSink* sink) {
    sink->Counter("tsb_admin_test_total", "h", {}, 9);
  });
  obs::MetricsRegistry registry;
  registry.Register(&source);

  obs::TracerConfig tracer_config;
  tracer_config.sample_every = 1;
  obs::Tracer tracer(tracer_config);
  auto trace = tracer.StartTrace("q");
  trace->Finish(0.001);
  tracer.Record(trace);

  obs::SlowQueryLog slow_log(obs::SlowQueryConfig{0.001, 8});
  obs::SlowQueryRecord record;
  record.request = "TOPK set1=Protein set2=DNA";
  slow_log.Record(record);

  obs::AdminState state;
  state.registry = &registry;
  state.tracer = &tracer;
  state.slow_log = &slow_log;
  state.text_renderer = []() { return "human tables"; };

  wire::AdminRequest request;
  request.command = wire::AdminCommand::kMetricsPrometheus;
  EXPECT_NE(obs::HandleAdmin(state, request).body.find(
                "tsb_admin_test_total 9"),
            std::string::npos);
  request.command = wire::AdminCommand::kMetricsJson;
  EXPECT_NE(obs::HandleAdmin(state, request).body.find(
                "\"tsb_admin_test_total\""),
            std::string::npos);
  request.command = wire::AdminCommand::kMetricsText;
  EXPECT_EQ(obs::HandleAdmin(state, request).body, "human tables");
  request.command = wire::AdminCommand::kTraces;
  EXPECT_NE(obs::HandleAdmin(state, request).body.find("trace "),
            std::string::npos);
  request.command = wire::AdminCommand::kSlowQueries;
  EXPECT_NE(obs::HandleAdmin(state, request).body.find(
                "TOPK set1=Protein set2=DNA"),
            std::string::npos);
}

TEST(AdminHandlerTest, FrameEntryPointAnswersInBandOnGarbage) {
  obs::AdminState state;
  // A valid round-trip.
  wire::AdminRequest request;
  request.command = wire::AdminCommand::kPing;
  std::string frame;
  wire::EncodeAdminRequest(request, &frame);
  auto response = wire::DecodeAdminResponse(obs::HandleAdminFrame(state, frame));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "pong");

  // Garbage still yields a decodable error response — the server can
  // always answer in-band instead of dropping the connection.
  response = wire::DecodeAdminResponse(obs::HandleAdminFrame(state, "junk"));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->error.ok());
}

// ---------------------------------------------------------------------------
// CostTracker
// ---------------------------------------------------------------------------

TEST(CostTrackerTest, SectionDrainsOnlyItsOwnCharges) {
  ASSERT_TRUE(obs::CostTracker::enabled());

  obs::CostTracker::Section outer;
  obs::CostTracker::ChargeBytesDeserialized(100);
  obs::CostTracker::ChargeCatalogInterns(2);

  {
    obs::CostTracker::Section inner;
    obs::CostTracker::ChargeBytesDeserialized(30);
    obs::CostTracker::ChargeHeapBytes(64);
    obs::CostCounters bill = inner.Drain();
    EXPECT_EQ(bill.bytes_deserialized, 30u);
    EXPECT_EQ(bill.heap_bytes, 64u);
    EXPECT_EQ(bill.catalog_interns, 0u);
  }

  // The outer section bills only what was charged outside the inner one —
  // the inner Drain rewound its charges off the thread counters.
  obs::CostCounters bill = outer.Drain();
  EXPECT_EQ(bill.bytes_deserialized, 100u);
  EXPECT_EQ(bill.catalog_interns, 2u);
  EXPECT_EQ(bill.heap_bytes, 0u);

  // Drain is idempotent: a second call returns only post-drain charges.
  obs::CostCounters again = outer.Drain();
  EXPECT_EQ(again.bytes_deserialized, 0u);
  EXPECT_EQ(again.catalog_interns, 0u);
}

TEST(CostTrackerTest, DisabledTrackerDropsChargesAndDrainsZero) {
  obs::CostTracker::set_enabled(false);
  obs::CostTracker::Section section;
  obs::CostTracker::ChargeBytesDeserialized(1000);
  obs::CostTracker::ChargeCatalogInterns(5);
  obs::CostTracker::ChargeHeapBytes(4096);
  const obs::CostCounters bill = section.Drain();
  obs::CostTracker::set_enabled(true);
  EXPECT_TRUE(bill.IsZero());
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

// Deterministic stream generator (SplitMix64): tests must not depend on
// random_device, and the same stream must be reproducible on failure.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Latencies spread over ~6 decades (0.1µs .. 0.1s) so the stream exercises
// many distinct buckets including sub-first-bound values.
double LatencyAt(uint64_t* state) {
  const double u =
      static_cast<double>(SplitMix64(state) >> 11) / 9007199254740992.0;
  return 1e-7 * std::pow(10.0, 6.0 * u);
}

TEST(LatencyHistogramTest, CountsSumsAndBucketResolutionQuantiles) {
  obs::LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);  // Empty: 0, not NaN.

  hist.Record(0.0005);
  hist.Record(0.0005);
  hist.Record(0.0005);
  hist.Record(0.010);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0115);
  EXPECT_DOUBLE_EQ(hist.max(), 0.010);

  // Quantiles are the upper bound of the bucket holding the rank: p50 sits
  // in the 0.5ms bucket, p99 in the 10ms bucket, never below the sample.
  EXPECT_GE(hist.Quantile(0.5), 0.0005);
  EXPECT_LT(hist.Quantile(0.5), 0.0007);
  EXPECT_GE(hist.Quantile(0.99), 0.010);
  EXPECT_LT(hist.Quantile(0.99), 0.013);
}

TEST(LatencyHistogramTest, OverflowBucketResolvesToExactMax) {
  obs::LatencyHistogram hist;
  hist.Record(1e-3);
  hist.Record(1e7);  // Far past the last finite bound (~4295s).
  EXPECT_EQ(hist.buckets()[obs::LatencyHistogram::kNumBuckets], 1u);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 1e7);
}

TEST(LatencyHistogramTest, MergeEqualsRecordingTheUnionStream) {
  // The tentpole's correctness claim: per-process histograms merged at the
  // topctl side must be bucket-for-bucket identical to one histogram that
  // saw the union stream — which makes every derived quantile identical
  // too. Exercise it over a deterministic 1000-sample stream split 4 ways.
  uint64_t state = 0x1234abcdULL;
  std::vector<double> stream;
  for (int i = 0; i < 1000; ++i) stream.push_back(LatencyAt(&state));

  obs::LatencyHistogram union_hist;
  obs::LatencyHistogram parts[4];
  for (size_t i = 0; i < stream.size(); ++i) {
    union_hist.Record(stream[i]);
    parts[i % 4].Record(stream[i]);
  }

  // Merge in two different orders; both must equal the union histogram.
  obs::LatencyHistogram forward;
  for (const auto& part : parts) forward.Merge(part);
  obs::LatencyHistogram backward;
  for (int i = 3; i >= 0; --i) backward.Merge(parts[i]);

  EXPECT_TRUE(forward == union_hist);
  EXPECT_TRUE(backward == union_hist);
  EXPECT_EQ(forward.count(), union_hist.count());
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(forward.Quantile(q), union_hist.Quantile(q)) << q;
    EXPECT_EQ(backward.Quantile(q), union_hist.Quantile(q)) << q;
  }
}

TEST(LatencyHistogramTest, MergeIsAssociative) {
  uint64_t state = 0xfeedULL;
  obs::LatencyHistogram a, b, c;
  for (int i = 0; i < 200; ++i) a.Record(LatencyAt(&state));
  for (int i = 0; i < 150; ++i) b.Record(LatencyAt(&state));
  for (int i = 0; i < 250; ++i) c.Record(LatencyAt(&state));

  obs::LatencyHistogram left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  obs::LatencyHistogram bc = b;     // a + (b + c)
  bc.Merge(c);
  obs::LatencyHistogram right = a;
  right.Merge(bc);

  EXPECT_TRUE(left == right);
  EXPECT_EQ(left.count(), 600u);
  EXPECT_EQ(left.buckets(), right.buckets());
}

TEST(LatencyHistogramTest, CumulativeBucketsEndAtInfinityWithTotalCount) {
  obs::LatencyHistogram hist;
  hist.Record(2e-6);
  hist.Record(3e-3);
  hist.Record(3e-3);
  const auto cumulative = hist.CumulativeBuckets();
  ASSERT_GE(cumulative.size(), 2u);
  // Running counts are nondecreasing and the +Inf entry closes at count.
  for (size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_LE(cumulative[i - 1].second, cumulative[i].second);
    EXPECT_LT(cumulative[i - 1].first, cumulative[i].first);
  }
  EXPECT_TRUE(std::isinf(cumulative.back().first));
  EXPECT_EQ(cumulative.back().second, 3u);
}

TEST(LatencyHistogramTest, CodecRoundTripsAndRejectsEveryTruncation) {
  uint64_t state = 0xc0ffeeULL;
  obs::LatencyHistogram hist;
  for (int i = 0; i < 300; ++i) hist.Record(LatencyAt(&state));
  hist.Record(1e7);  // Populate the overflow bucket too.

  std::string bytes;
  hist.EncodeTo(&bytes);
  BinaryReader in(bytes);
  auto decoded = obs::LatencyHistogram::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.AtEnd());
  EXPECT_TRUE(*decoded == hist);
  EXPECT_DOUBLE_EQ(decoded->sum(), hist.sum());
  EXPECT_DOUBLE_EQ(decoded->max(), hist.max());

  // Re-encode is byte-identical (the sparse layout is canonical).
  std::string again;
  decoded->EncodeTo(&again);
  EXPECT_EQ(bytes, again);

  for (size_t len = 0; len < bytes.size(); ++len) {
    BinaryReader truncated(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(obs::LatencyHistogram::DecodeFrom(&truncated).ok()) << len;
  }
}

TEST(LatencyHistogramTest, DecodeRejectsMalformedBucketLists) {
  // Bucket counts that do not sum to the header count.
  std::string bytes;
  PutU64(&bytes, 10);  // count claims 10...
  PutF64(&bytes, 1.0);
  PutF64(&bytes, 0.5);
  PutU32(&bytes, 1);
  PutU16(&bytes, 3);
  PutU64(&bytes, 7);  // ...but the only bucket holds 7.
  BinaryReader in(bytes);
  EXPECT_FALSE(obs::LatencyHistogram::DecodeFrom(&in).ok());

  // Out-of-order bucket indexes.
  bytes.clear();
  PutU64(&bytes, 4);
  PutF64(&bytes, 1.0);
  PutF64(&bytes, 0.5);
  PutU32(&bytes, 2);
  PutU16(&bytes, 9);
  PutU64(&bytes, 2);
  PutU16(&bytes, 4);  // Decreasing index: invalid.
  PutU64(&bytes, 2);
  BinaryReader in2(bytes);
  EXPECT_FALSE(obs::LatencyHistogram::DecodeFrom(&in2).ok());

  // Index beyond the overflow bucket.
  bytes.clear();
  PutU64(&bytes, 1);
  PutF64(&bytes, 1.0);
  PutF64(&bytes, 0.5);
  PutU32(&bytes, 1);
  PutU16(&bytes, obs::LatencyHistogram::kNumBuckets + 1);
  PutU64(&bytes, 1);
  BinaryReader in3(bytes);
  EXPECT_FALSE(obs::LatencyHistogram::DecodeFrom(&in3).ok());
}

// ---------------------------------------------------------------------------
// Span cpu attribution (the span records piggybacked on wire responses)
// ---------------------------------------------------------------------------

TEST(SpanCodecTest, CpuFieldRoundTripsThroughTheSpanCodec) {
  std::vector<obs::Span> spans(1);
  spans[0].name = "shard.exec";
  spans[0].cpu_ns = 1234567890ULL;
  std::string bytes;
  obs::EncodeSpans(spans, &bytes);
  BinaryReader in(bytes);
  std::vector<obs::Span> decoded;
  ASSERT_TRUE(obs::DecodeSpans(&in, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].cpu_ns, 1234567890ULL);
}

TEST(SpanCodecTest, SpanRecordWithoutCpuFieldIsRejected) {
  // A span record that ends at the duration (no cpu_ns) is short by one
  // field and must fail, not decode with a silent zero.
  std::string bytes;
  PutU32(&bytes, 1);
  PutU64(&bytes, 11);   // span_id
  PutU64(&bytes, 0);    // parent
  PutString(&bytes, "execute");
  PutString(&bytes, "ok=1");
  PutF64(&bytes, 1723100000.0);
  PutF64(&bytes, 0.125);
  BinaryReader in(bytes);
  std::vector<obs::Span> rejected;
  EXPECT_FALSE(obs::DecodeSpans(&in, &rejected).ok());
}

TEST(FormatSpanTreeTest, CpuAttributionRendersWhenPresent) {
  std::vector<obs::Span> spans(1);
  spans[0].span_id = 1;
  spans[0].name = "execute";
  spans[0].duration_seconds = 0.010;
  spans[0].cpu_ns = 4250000;  // 4.25ms of CPU inside 10ms of wall.
  const std::string tree = obs::FormatSpanTree(spans);
  EXPECT_NE(tree.find("cpu 4.250ms"), std::string::npos) << tree;
}

// ---------------------------------------------------------------------------
// FleetSnapshot: codec, merge semantics, rendering
// ---------------------------------------------------------------------------

obs::FleetSnapshot MakeSnapshot(uint64_t seed, uint64_t shard0_rows) {
  uint64_t state = seed;
  obs::FleetSnapshot snap;
  obs::FleetMethodStats method;
  method.method = "full-topk";
  method.requests = 100 + seed;
  method.cache_hits = 40;
  method.errors = 1;
  for (int i = 0; i < 50; ++i) method.latency.Record(LatencyAt(&state));
  method.cost.cpu_ns = 5000000 * (seed + 1);
  method.cost.bytes_deserialized = 1 << 20;
  method.cost.catalog_interns = 12;
  method.cost.heap_bytes = 1 << 16;
  snap.methods.push_back(std::move(method));
  snap.total_requests = 100 + seed;
  snap.total_cache_hits = 40;
  snap.total_errors = 1;
  snap.total_rejected = 2;
  snap.scan_rows = 5000;
  snap.scan_blocks_total = 80;
  snap.scan_blocks_skipped = 30;
  snap.shard_rows = {shard0_rows, 900};
  snap.mutation_batches = 3;
  snap.mutation_ops = 17;
  snap.wal_records = 3;
  snap.wal_bytes = 4096;
  obs::FleetTopQuery query;
  query.request = "TOPK set1=Protein set2=DNA k=10";
  query.method = "full-topk";
  query.service_seconds = 0.25;
  query.cpu_ns = 1000000 * (seed + 1);
  query.bytes = 65536;
  snap.top_queries.push_back(std::move(query));
  return snap;
}

TEST(FleetSnapshotTest, CodecRoundTripsEveryField) {
  obs::FleetSnapshot snap = MakeSnapshot(/*seed=*/1, /*shard0_rows=*/1000);
  snap.hedges_launched = 4;
  snap.failovers = 2;
  snap.exhausted = 1;
  snap.overlay_generations = 2;
  snap.compaction_folds = 1;

  std::string bytes;
  obs::EncodeFleetSnapshot(snap, &bytes);
  auto decoded = obs::DecodeFleetSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->processes, 1u);
  ASSERT_EQ(decoded->methods.size(), 1u);
  EXPECT_EQ(decoded->methods[0].method, "full-topk");
  EXPECT_EQ(decoded->methods[0].requests, snap.methods[0].requests);
  EXPECT_TRUE(decoded->methods[0].latency == snap.methods[0].latency);
  EXPECT_EQ(decoded->methods[0].cost.cpu_ns, snap.methods[0].cost.cpu_ns);
  EXPECT_EQ(decoded->methods[0].cost.heap_bytes,
            snap.methods[0].cost.heap_bytes);
  EXPECT_EQ(decoded->total_requests, snap.total_requests);
  EXPECT_EQ(decoded->total_rejected, snap.total_rejected);
  EXPECT_EQ(decoded->scan_blocks_skipped, snap.scan_blocks_skipped);
  EXPECT_EQ(decoded->shard_rows, snap.shard_rows);
  EXPECT_EQ(decoded->hedges_launched, 4u);
  EXPECT_EQ(decoded->failovers, 2u);
  EXPECT_EQ(decoded->exhausted, 1u);
  EXPECT_EQ(decoded->mutation_batches, snap.mutation_batches);
  EXPECT_EQ(decoded->mutation_ops, snap.mutation_ops);
  EXPECT_EQ(decoded->overlay_generations, 2u);
  EXPECT_EQ(decoded->compaction_folds, 1u);
  EXPECT_EQ(decoded->wal_records, snap.wal_records);
  EXPECT_EQ(decoded->wal_bytes, snap.wal_bytes);
  ASSERT_EQ(decoded->top_queries.size(), 1u);
  EXPECT_EQ(decoded->top_queries[0].request, snap.top_queries[0].request);
  EXPECT_EQ(decoded->top_queries[0].cpu_ns, snap.top_queries[0].cpu_ns);

  // Re-encode of the decoded snapshot is byte-identical: the encoding is
  // canonical, so snapshots can be compared as strings.
  std::string again;
  obs::EncodeFleetSnapshot(*decoded, &again);
  EXPECT_EQ(bytes, again);
}

TEST(FleetSnapshotTest, DecodeRejectsTruncationAndTrailingGarbage) {
  obs::FleetSnapshot snap = MakeSnapshot(/*seed=*/2, /*shard0_rows=*/10);
  std::string bytes;
  obs::EncodeFleetSnapshot(snap, &bytes);

  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        obs::DecodeFleetSnapshot(std::string_view(bytes).substr(0, len)).ok())
        << len;
  }
  EXPECT_FALSE(obs::DecodeFleetSnapshot(bytes + "x").ok());
}

TEST(FleetSnapshotTest, MergeSumsCountersAndMaxesShardRows) {
  obs::FleetSnapshot a = MakeSnapshot(/*seed=*/0, /*shard0_rows=*/1000);
  obs::FleetSnapshot b = MakeSnapshot(/*seed=*/5, /*shard0_rows=*/800);
  b.shard_rows.push_back(300);  // b knows one more shard than a.

  obs::LatencyHistogram union_latency = a.methods[0].latency;
  union_latency.Merge(b.methods[0].latency);

  obs::FleetSnapshot merged = a;
  merged.Merge(b);

  EXPECT_EQ(merged.processes, 2u);
  ASSERT_EQ(merged.methods.size(), 1u);  // Same method name: one row.
  EXPECT_EQ(merged.methods[0].requests,
            a.methods[0].requests + b.methods[0].requests);
  EXPECT_EQ(merged.methods[0].cost.cpu_ns,
            a.methods[0].cost.cpu_ns + b.methods[0].cost.cpu_ns);
  EXPECT_TRUE(merged.methods[0].latency == union_latency);
  EXPECT_EQ(merged.total_requests, a.total_requests + b.total_requests);
  // Replicas of the same shard: elementwise max, never a double count.
  ASSERT_EQ(merged.shard_rows.size(), 3u);
  EXPECT_EQ(merged.shard_rows[0], 1000u);
  EXPECT_EQ(merged.shard_rows[1], 900u);
  EXPECT_EQ(merged.shard_rows[2], 300u);
  EXPECT_EQ(merged.mutation_ops, a.mutation_ops + b.mutation_ops);
  EXPECT_EQ(merged.wal_bytes, a.wal_bytes + b.wal_bytes);
}

TEST(FleetSnapshotTest, NormalizeRanksTopQueriesByScoreAndCaps) {
  obs::FleetSnapshot snap;
  for (uint64_t i = 0; i < obs::FleetSnapshot::kMaxTopQueries + 4; ++i) {
    obs::FleetTopQuery query;
    query.request = "q" + std::to_string(i);
    query.method = "full-topk";
    query.cpu_ns = 1000 * (i + 1);  // Score grows with i.
    query.bytes = 10;
    snap.top_queries.push_back(std::move(query));
  }
  snap.Normalize();
  ASSERT_EQ(snap.top_queries.size(), obs::FleetSnapshot::kMaxTopQueries);
  for (size_t i = 1; i < snap.top_queries.size(); ++i) {
    EXPECT_GE(snap.top_queries[i - 1].Score(), snap.top_queries[i].Score());
  }
  // The cheapest entries fell off the back.
  EXPECT_EQ(snap.top_queries.front().request, "q11");
  EXPECT_EQ(snap.top_queries.back().request, "q4");
}

TEST(FleetSnapshotTest, MergeIsOrderIndependentAfterEncoding) {
  // topctl polls endpoints in whatever order the flag listed them; the
  // rendered dashboard must not depend on it. Canonical encodings of the
  // two merge orders must be byte-identical.
  obs::FleetSnapshot a = MakeSnapshot(/*seed=*/3, /*shard0_rows=*/500);
  obs::FleetSnapshot b = MakeSnapshot(/*seed=*/8, /*shard0_rows=*/700);
  obs::FleetMethodStats fast;
  fast.method = "fast-topk";
  fast.requests = 9;
  fast.latency.Record(1e-3);
  b.methods.push_back(std::move(fast));

  obs::FleetSnapshot ab = a;
  ab.Merge(b);
  obs::FleetSnapshot ba = b;
  ba.Merge(a);

  std::string ab_bytes, ba_bytes;
  obs::EncodeFleetSnapshot(ab, &ab_bytes);
  obs::EncodeFleetSnapshot(ba, &ba_bytes);
  EXPECT_EQ(ab_bytes, ba_bytes);
  EXPECT_EQ(ab.Render(), ba.Render());
}

TEST(FleetSnapshotTest, RenderShowsTheDashboardSections) {
  obs::FleetSnapshot a = MakeSnapshot(/*seed=*/1, /*shard0_rows=*/1200);
  obs::FleetSnapshot merged = a;
  merged.Merge(MakeSnapshot(/*seed=*/2, /*shard0_rows=*/1100));
  const std::string text = merged.Render();
  EXPECT_NE(text.find("fleet cost snapshot (2 processes)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("full-topk"), std::string::npos);
  EXPECT_NE(text.find("zone-skipped"), std::string::npos);
  EXPECT_NE(text.find("s0=1200"), std::string::npos) << text;
  EXPECT_NE(text.find("mutation: batches 6"), std::string::npos) << text;
  EXPECT_NE(text.find("top-cost queries"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsRegistry: histogram families
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, RendersHistogramBucketFamilies) {
  obs::CallbackSource source([](obs::MetricsSink* sink) {
    obs::HistogramValue value;
    value.count = 7;
    value.sum = 0.042;
    value.buckets = {{0.001, 3}, {0.004, 6},
                     {std::numeric_limits<double>::infinity(), 7}};
    sink->Histogram("tsb_latency_hist_seconds", "Latency histogram.",
                    {{"method", "full-topk"}}, value);
  });
  obs::MetricsRegistry registry;
  registry.Register(&source);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE tsb_latency_hist_seconds histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsb_latency_hist_seconds_bucket{method=\"full-topk\","
                      "le=\"0.001\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsb_latency_hist_seconds_bucket{method=\"full-topk\","
                      "le=\"+Inf\"} 7"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsb_latency_hist_seconds_count{method=\"full-topk\"}"
                      " 7"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsb_latency_hist_seconds_sum{method=\"full-topk\"} "
                      "0.042"),
            std::string::npos)
      << text;

  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[[\"0.001\",3],[\"0.004\",6],"
                      "[\"+Inf\",7]]"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Admin channel: cost snapshot
// ---------------------------------------------------------------------------

TEST(AdminHandlerTest, CostSnapshotStreamsADecodableFleetSnapshot) {
  obs::AdminState state;
  state.cost_snapshot = []() {
    return MakeSnapshot(/*seed=*/4, /*shard0_rows=*/4242);
  };
  wire::AdminRequest request;
  request.command = wire::AdminCommand::kCostSnapshot;
  wire::AdminResponse response = obs::HandleAdmin(state, request);
  ASSERT_TRUE(response.error.ok());
  auto decoded = obs::DecodeFleetSnapshot(response.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->shard_rows[0], 4242u);
  ASSERT_EQ(decoded->methods.size(), 1u);
  EXPECT_EQ(decoded->methods[0].method, "full-topk");
  EXPECT_EQ(decoded->total_requests, 104u);

  // The full frame path works too: encode the request, hand the raw frame
  // to HandleAdminFrame, decode the response envelope and then the body.
  std::string frame;
  wire::EncodeAdminRequest(request, &frame);
  auto envelope =
      wire::DecodeAdminResponse(obs::HandleAdminFrame(state, frame));
  ASSERT_TRUE(envelope.ok());
  ASSERT_TRUE(envelope->error.ok());
  EXPECT_EQ(envelope->body, response.body);
}

}  // namespace
}  // namespace tsb
