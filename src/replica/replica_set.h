#ifndef TSB_REPLICA_REPLICA_SET_H_
#define TSB_REPLICA_REPLICA_SET_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/endpoint_client.h"
#include "obs/trace.h"
#include "replica/health.h"
#include "service/metrics.h"
#include "service/thread_pool.h"
#include "wire/transport.h"

namespace tsb {
namespace replica {

/// One replica's synchronous frame channel: request frame in, response
/// frame out, under an absolute deadline. The replica-set transport is
/// written against this seam so the failover/hedging machinery is
/// identical over real sockets (SocketReplicaChannel) and the in-process
/// fault-injection channel tests use (shard::LoopbackReplicaChannel).
class ReplicaChannel {
 public:
  virtual ~ReplicaChannel() = default;

  /// One round-trip. `telemetry` (optional) receives byte counts and
  /// reconnect events. Must be safe to call from any thread.
  virtual Result<std::string> RoundTrip(
      const std::string& request, const net::Deadline& deadline,
      net::RoundTripTelemetry* telemetry) = 0;

  /// Where this channel points, for logs ("unix:/tmp/... " or a label).
  virtual std::string Describe() const = 0;
};

/// ReplicaChannel over one net::EndpointClient — pooled connections,
/// reconnect backoff, and the stale-conn retry all apply per replica.
class SocketReplicaChannel : public ReplicaChannel {
 public:
  explicit SocketReplicaChannel(
      net::ShardEndpoint endpoint,
      net::EndpointClientConfig config = net::EndpointClientConfig{})
      : client_(std::move(endpoint), config) {}

  Result<std::string> RoundTrip(const std::string& request,
                                const net::Deadline& deadline,
                                net::RoundTripTelemetry* telemetry) override {
    return client_.RoundTrip(request, deadline, telemetry);
  }

  std::string Describe() const override {
    return client_.endpoint().ToString();
  }

  net::EndpointClient& client() { return client_; }

 private:
  net::EndpointClient client_;
};

/// The plain socket fleet: one SocketReplicaChannel per shard (R=1),
/// `endpoints[s]` serving shard s — the channel grid a ReplicaSetTransport
/// takes when every shard is a single server process.
std::vector<std::vector<std::unique_ptr<ReplicaChannel>>> SocketShardChannels(
    const std::vector<net::ShardEndpoint>& endpoints,
    const net::EndpointClientConfig& config = net::EndpointClientConfig{});

struct ReplicaSetConfig {
  /// End-to-end deadline of one logical Send, covering every attempt
  /// (primary, hedge, failovers) under it; 0 means none. Over sockets it
  /// must stay finite: the executor's gather deadline abandons the future
  /// but cannot free the threads carrying it, so a hung shard would wedge
  /// them forever.
  double request_timeout_seconds = 30.0;

  /// Hedged reads: when the primary attempt has not answered within the
  /// hedge delay, fire the same request at the next-best replica; first
  /// answer wins, the loser completes and is discarded. The delay is
  /// max(floor, factor × shard RTT p95), or `default` until the shard has
  /// `min_samples` completed attempts to estimate a p95 from.
  bool hedge_enabled = true;
  double hedge_delay_floor_seconds = 0.002;
  double hedge_delay_default_seconds = 0.050;
  double hedge_delay_factor = 2.0;
  uint64_t hedge_min_samples = 32;

  /// Coordinator threads (one logical in-flight Send each); 0 means
  /// min(2 × shards, 16), at least 2. Each in-flight Send occupies one
  /// coordinator for its whole round-trip, so this bounds concurrency.
  size_t coordinator_threads = 0;
  /// Attempt threads (one per in-flight physical round-trip; a logical
  /// Send can hold several at once while hedging); 0 means
  /// min(2 × total replicas, 32).
  size_t attempt_threads = 0;

  HealthConfig health;
};

/// wire::ShardTransport over an N-shards × R-replicas endpoint grid: the
/// replica-aware layer between the scatter-gather executor and the
/// sockets. Every shard's replicas are byte-identical by construction
/// (deterministic builds — see README "Replication"), so any of them can
/// serve any sub-query and the work here is pure routing:
///
///  - Load routing: each sub-query goes to the replica with the best
///    (health tier, outstanding requests, RTT EWMA) — the least-loaded
///    healthy replica, with ejected/quarantined ones ordered last but
///    never unreachable.
///  - Hedged reads: a primary that dawdles past the p95-derived hedge
///    delay gets a second copy fired at the next replica; first answer
///    wins, the loser is discarded (its attempt still completes and
///    settles its own accounting).
///  - Failover: a failed attempt moves to the next untried replica
///    immediately. Only when *every* replica of a shard has failed does
///    the future resolve to a Status — which the executor degrades to
///    partial=true. A single killed process is therefore invisible in
///    results: zero-partial fan-out.
///  - Health: outcomes and serving stamps feed the ReplicaHealthTracker;
///    suspect and ejected replicas are probed by live traffic (the probe
///    is just a routed request, so a recovered replica reinstates itself
///    and a dead one walks the ladder to ejection), and
///    stamps lagging the shard's epoch high-water mark quarantine the
///    replica until it catches up.
///
/// This is the program's only wire::ShardTransport. At R=1 it is the plain
/// transport: over SocketReplicaChannels (SocketShardChannels) it is the
/// cross-process fleet, over LoopbackReplicaChannels the executor's
/// built-in in-process path. Send never blocks, the future always becomes
/// ready, and failures come back as Status, so R changes no executor code.
class ReplicaSetTransport : public wire::ShardTransport {
 public:
  /// `channels[s]` are shard s's replicas, best-effort identical content;
  /// every shard needs ≥ 1. `transport_metrics` (optional, non-owning)
  /// receives the per-shard logical view (one row per Send) — pass the
  /// executor's transport_metrics() so a transport swap keeps one
  /// telemetry stream; per-replica telemetry lives in replica_metrics().
  ReplicaSetTransport(
      std::vector<std::vector<std::unique_ptr<ReplicaChannel>>> channels,
      ReplicaSetConfig config = ReplicaSetConfig{},
      service::TransportMetrics* transport_metrics = nullptr);
  ~ReplicaSetTransport();

  ReplicaSetTransport(const ReplicaSetTransport&) = delete;
  ReplicaSetTransport& operator=(const ReplicaSetTransport&) = delete;

  size_t num_shards() const override { return channels_.size(); }
  size_t num_replicas(size_t shard) const {
    return channels_[shard].size();
  }

  std::future<Result<std::string>> Send(size_t shard,
                                        std::string request) override;

  /// Traced Send: every physical attempt under this logical request —
  /// primary, piggybacked probe, hedge, failovers — records a
  /// "replica.attempt" span into `trace` under `parent_span_id`, tagged
  /// with the replica and what kind of attempt it was. Spans settle from
  /// the attempt tasks themselves, so a hedge loser that finishes after
  /// the logical request is still traced.
  std::future<Result<std::string>> SendTraced(
      size_t shard, std::string request,
      const std::shared_ptr<obs::QueryTrace>& trace,
      uint64_t parent_span_id) override;

  /// Synchronous logical round-trip (what Send runs on a coordinator
  /// thread): routing, hedging, and failover included.
  Result<std::string> RoundTrip(size_t shard, const std::string& request);

  service::ReplicaMetrics& replica_metrics() { return replica_metrics_; }
  const service::ReplicaMetrics& replica_metrics() const {
    return replica_metrics_;
  }
  ReplicaHealthTracker& health() { return tracker_; }
  const ReplicaHealthTracker& health() const { return tracker_; }

  ReplicaChannel& channel(size_t shard, size_t rep) {
    return *channels_[shard][rep];
  }

  /// The hedge delay currently in effect for `shard` (tests, dashboards).
  double HedgeDelaySeconds(size_t shard) const;

 private:
  struct SendState;  // Shared coordinator/attempt rendezvous.

  Result<std::string> RoundTripFrom(
      size_t shard, const std::string& request,
      std::chrono::steady_clock::time_point start,
      const std::shared_ptr<obs::QueryTrace>& trace = nullptr,
      uint64_t parent_span_id = 0);

  /// Best untried replica by (tier, outstanding, RTT EWMA); returns false
  /// when every replica was tried.
  bool PickReplica(size_t shard, const std::vector<bool>& tried,
                   std::chrono::steady_clock::time_point now,
                   size_t* out) const;

  /// Submits one physical attempt; false if the attempt pool is gone.
  bool LaunchAttempt(size_t shard, size_t rep,
                     const std::shared_ptr<SendState>& state, bool is_probe,
                     bool is_hedge, bool is_failover,
                     const net::Deadline& deadline);

  std::vector<std::vector<std::unique_ptr<ReplicaChannel>>> channels_;
  ReplicaSetConfig config_;
  service::TransportMetrics* transport_metrics_;
  service::ReplicaMetrics replica_metrics_;
  ReplicaHealthTracker tracker_;
  // Pools last: destroyed first, so in-flight tasks never outlive the
  // members they reference. Attempts never submit to pools and
  // coordinators wait on a condition variable, not on pool futures of
  // their own pool — the wait-for graph stays acyclic.
  service::ThreadPool attempt_pool_;
  service::ThreadPool coordinator_pool_;
};

}  // namespace replica
}  // namespace tsb

#endif  // TSB_REPLICA_REPLICA_SET_H_
