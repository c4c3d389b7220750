#include "replica/replica_set.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace tsb {
namespace replica {

namespace {

std::chrono::steady_clock::duration Secs(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

size_t ResolveCoordinatorThreads(size_t requested, size_t num_shards) {
  if (requested > 0) return requested;
  return std::max<size_t>(2, std::min<size_t>(2 * num_shards, 16));
}

size_t ResolveAttemptThreads(size_t requested, size_t total_replicas) {
  if (requested > 0) return requested;
  return std::max<size_t>(2, std::min<size_t>(2 * total_replicas, 32));
}

std::vector<size_t> ReplicaCounts(
    const std::vector<std::vector<std::unique_ptr<ReplicaChannel>>>&
        channels) {
  std::vector<size_t> counts;
  counts.reserve(channels.size());
  for (const auto& shard : channels) counts.push_back(shard.size());
  return counts;
}

size_t TotalReplicas(const std::vector<size_t>& counts) {
  size_t total = 0;
  for (size_t c : counts) total += c;
  return total;
}

}  // namespace

std::vector<std::vector<std::unique_ptr<ReplicaChannel>>> SocketShardChannels(
    const std::vector<net::ShardEndpoint>& endpoints,
    const net::EndpointClientConfig& config) {
  std::vector<std::vector<std::unique_ptr<ReplicaChannel>>> channels(
      endpoints.size());
  for (size_t s = 0; s < endpoints.size(); ++s) {
    channels[s].push_back(
        std::make_unique<SocketReplicaChannel>(endpoints[s], config));
  }
  return channels;
}

/// The rendezvous between one logical Send's coordinator and its physical
/// attempts. Attempts own a shared_ptr, so the state (and the request
/// bytes inside it) outlives a coordinator that returned on deadline
/// while a loser attempt was still on the wire.
struct ReplicaSetTransport::SendState {
  std::mutex mu;
  std::condition_variable cv;
  std::string request;

  bool done = false;  // winner_frame holds the answer.
  std::string winner_frame;
  size_t winner_replica = 0;
  bool winner_was_hedge = false;

  size_t launched = 0;
  size_t finished = 0;
  Status last_error = Status::OK();

  // Wire bytes over all attempts (for the logical TransportMetrics row).
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;

  // Tracing sink (null for untraced traffic). QueryTrace is internally
  // synchronized and attempts hold the shared_ptr, so a hedge loser that
  // settles after the logical request still records its span safely.
  std::shared_ptr<obs::QueryTrace> trace;
  uint64_t parent_span_id = 0;
};

ReplicaSetTransport::ReplicaSetTransport(
    std::vector<std::vector<std::unique_ptr<ReplicaChannel>>> channels,
    ReplicaSetConfig config, service::TransportMetrics* transport_metrics)
    : channels_(std::move(channels)),
      config_(config),
      transport_metrics_(transport_metrics),
      replica_metrics_(ReplicaCounts(channels_)),
      tracker_(ReplicaCounts(channels_), config.health, &replica_metrics_),
      attempt_pool_(ResolveAttemptThreads(
          config.attempt_threads, TotalReplicas(ReplicaCounts(channels_)))),
      coordinator_pool_(ResolveCoordinatorThreads(config.coordinator_threads,
                                                  channels_.size())) {
  TSB_CHECK(!channels_.empty());
  for (const auto& shard : channels_) TSB_CHECK(!shard.empty());
  if (transport_metrics_ != nullptr) {
    TSB_CHECK_GE(transport_metrics_->num_shards(), channels_.size());
  }
}

ReplicaSetTransport::~ReplicaSetTransport() {
  // Coordinators first (they may still launch attempts), then attempts.
  coordinator_pool_.Shutdown();
  attempt_pool_.Shutdown();
}

double ReplicaSetTransport::HedgeDelaySeconds(size_t shard) const {
  const double p95 =
      replica_metrics_.ShardRttP95(shard, config_.hedge_min_samples);
  if (p95 <= 0.0) return config_.hedge_delay_default_seconds;
  return std::max(config_.hedge_delay_floor_seconds,
                  config_.hedge_delay_factor * p95);
}

bool ReplicaSetTransport::PickReplica(
    size_t shard, const std::vector<bool>& tried,
    std::chrono::steady_clock::time_point now, size_t* out) const {
  bool found = false;
  int best_tier = 0;
  uint64_t best_outstanding = 0;
  double best_ewma = 0.0;
  for (size_t rep = 0; rep < channels_[shard].size(); ++rep) {
    if (tried[rep]) continue;
    const int tier = tracker_.Rank(shard, rep, now);
    const uint64_t outstanding = replica_metrics_.Outstanding(shard, rep);
    const double ewma = replica_metrics_.RttEwma(shard, rep);
    const bool better =
        !found || tier < best_tier ||
        (tier == best_tier &&
         (outstanding < best_outstanding ||
          (outstanding == best_outstanding && ewma < best_ewma)));
    if (better) {
      found = true;
      best_tier = tier;
      best_outstanding = outstanding;
      best_ewma = ewma;
      *out = rep;
    }
  }
  return found;
}

bool ReplicaSetTransport::LaunchAttempt(
    size_t shard, size_t rep, const std::shared_ptr<SendState>& state,
    bool is_probe, bool is_hedge, bool is_failover,
    const net::Deadline& deadline) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->launched;
  }
  auto task = [this, shard, rep, state, is_probe, is_hedge, is_failover,
               deadline]() {
    // Attempt/outcome pairing lives inside the task: the gauges settle
    // even when the logical request already finished (hedge loser) or its
    // caller abandoned the future (cancellation-safe accounting).
    replica_metrics_.RecordAttempt(shard, rep, is_probe, is_hedge);
    const double start_unix =
        state->trace != nullptr ? obs::UnixSeconds() : 0.0;
    const auto attempt_start = std::chrono::steady_clock::now();
    net::RoundTripTelemetry telemetry;
    Result<std::string> response =
        channels_[shard][rep]->RoundTrip(state->request, deadline,
                                         &telemetry);
    const auto now = std::chrono::steady_clock::now();
    const double rtt =
        std::chrono::duration<double>(now - attempt_start).count();
    replica_metrics_.RecordOutcome(shard, rep, rtt, response.ok());
    if (state->trace != nullptr) {
      std::string tags = "shard=" + std::to_string(shard) +
                         ",replica=" + std::to_string(rep) +
                         (response.ok() ? ",ok=1" : ",ok=0");
      if (is_hedge) tags += ",hedge=1";
      if (is_probe) tags += ",probe=1";
      if (is_failover) tags += ",failover=1";
      state->trace->AddSpan("replica.attempt", state->parent_span_id,
                            start_unix, rtt, std::move(tags));
    }
    if (transport_metrics_ != nullptr) {
      for (uint64_t i = 0; i < telemetry.reconnects; ++i) {
        transport_metrics_->RecordReconnect(shard);
      }
    }
    if (response.ok()) {
      uint64_t replica_id = 0;
      uint64_t epoch = 0;
      Result<std::string> stamp = wire::PeekResponseStamp(*response);
      if (stamp.ok() &&
          wire::ParseServingStamp(*stamp, &replica_id, &epoch)) {
        tracker_.OnSuccess(shard, rep, epoch, now);
      } else {
        // Unstamped response (a non-replica-aware server): clears the
        // failure ladder without moving the epoch high-water mark.
        tracker_.OnSuccess(shard, rep, tracker_.shard_epoch(shard), now);
      }
    } else {
      tracker_.OnFailure(shard, rep, now);
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->finished;
      state->bytes_sent += telemetry.bytes_sent;
      state->bytes_received += telemetry.bytes_received;
      if (response.ok() && !state->done) {
        state->done = true;
        state->winner_frame = std::move(*response);
        state->winner_replica = rep;
        state->winner_was_hedge = is_hedge;
      } else if (!response.ok()) {
        state->last_error = response.status();
      }
      // Else: a losing success — discarded (replicas are identical, the
      // winner's frame already carries the same answer).
    }
    state->cv.notify_all();
  };
  std::future<void> future = attempt_pool_.Submit(std::move(task));
  if (!future.valid()) {
    std::lock_guard<std::mutex> lock(state->mu);
    --state->launched;
    return false;
  }
  return true;
}

Result<std::string> ReplicaSetTransport::RoundTrip(
    size_t shard, const std::string& request) {
  return RoundTripFrom(shard, request, std::chrono::steady_clock::now());
}

Result<std::string> ReplicaSetTransport::RoundTripFrom(
    size_t shard, const std::string& request,
    std::chrono::steady_clock::time_point start,
    const std::shared_ptr<obs::QueryTrace>& trace,
    uint64_t parent_span_id) {
  if (shard >= channels_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard));
  }
  const size_t num_replicas = channels_[shard].size();
  // One absolute deadline covers every attempt beneath this Send —
  // primary, probe, hedge, and failovers all charge the same budget.
  net::Deadline deadline;
  if (config_.request_timeout_seconds > 0.0) {
    deadline = start + Secs(config_.request_timeout_seconds);
  }

  auto state = std::make_shared<SendState>();
  state->request = request;
  state->trace = trace;
  state->parent_span_id = parent_span_id;
  std::vector<bool> tried(num_replicas, false);
  const auto untried_left = [&tried]() {
    for (bool t : tried) {
      if (!t) return true;
    }
    return false;
  };

  auto now = std::chrono::steady_clock::now();
  size_t primary = 0;
  TSB_CHECK(PickReplica(shard, tried, now, &primary));
  tried[primary] = true;
  if (!LaunchAttempt(shard, primary, state,
                     tracker_.StartProbe(shard, primary, now),
                     /*is_hedge=*/false, /*is_failover=*/false, deadline)) {
    return Status::FailedPrecondition("replica transport shutting down");
  }
  // Piggyback at most one recovery probe: a suspect or ejected sibling
  // whose probe interval elapsed gets the same request — live traffic is
  // the probe stream, and since replicas are identical a probe that
  // answers first simply wins.
  for (size_t rep = 0; rep < num_replicas; ++rep) {
    if (tried[rep]) continue;
    const ReplicaHealth sibling = tracker_.state(shard, rep);
    if ((sibling == ReplicaHealth::kEjected ||
         sibling == ReplicaHealth::kSuspect) &&
        tracker_.StartProbe(shard, rep, now)) {
      tried[rep] = true;
      LaunchAttempt(shard, rep, state, /*is_probe=*/true,
                    /*is_hedge=*/false, /*is_failover=*/false, deadline);
      break;
    }
  }

  const auto hedge_at = start + Secs(HedgeDelaySeconds(shard));
  bool hedged = false;
  Result<std::string> result = Status::Internal("unreachable");

  std::unique_lock<std::mutex> lock(state->mu);
  while (true) {
    if (state->done) {
      result = std::move(state->winner_frame);
      if (state->winner_was_hedge) {
        replica_metrics_.RecordHedgeWin(shard, state->winner_replica);
      }
      break;
    }
    now = std::chrono::steady_clock::now();
    if (net::DeadlineExpired(deadline)) {
      result = Status::ResourceExhausted(
          "shard " + std::to_string(shard) +
          ": replica-set deadline expired");
      break;
    }
    if (state->finished == state->launched) {
      // Every launched attempt failed: fail over to the next untried
      // replica, or surface the last failure once the set is exhausted.
      lock.unlock();
      size_t next = 0;
      if (PickReplica(shard, tried, now, &next)) {
        tried[next] = true;
        replica_metrics_.RecordFailover(shard);
        const bool launched =
            LaunchAttempt(shard, next, state,
                          tracker_.StartProbe(shard, next, now),
                          /*is_hedge=*/false, /*is_failover=*/true,
                          deadline);
        lock.lock();
        if (launched) continue;
        result = Status::FailedPrecondition(
            "replica transport shutting down");
        break;
      }
      replica_metrics_.RecordExhausted(shard);
      lock.lock();
      result = state->last_error.ok()
                   ? Status::Internal("shard " + std::to_string(shard) +
                                      ": all replicas failed")
                   : state->last_error;
      break;
    }
    const bool can_hedge =
        config_.hedge_enabled && !hedged && untried_left();
    if (can_hedge && now >= hedge_at) {
      // The primary is past the hedge delay: fire the same request at the
      // next-best replica. First answer wins; the loser completes on the
      // attempt pool and is discarded.
      hedged = true;
      lock.unlock();
      size_t next = 0;
      if (PickReplica(shard, tried, now, &next)) {
        tried[next] = true;
        replica_metrics_.RecordHedgeLaunched(shard);
        LaunchAttempt(shard, next, state,
                      tracker_.StartProbe(shard, next, now),
                      /*is_hedge=*/true, /*is_failover=*/false, deadline);
      }
      lock.lock();
      continue;
    }
    auto wait_until = now + std::chrono::seconds(1);
    if (deadline.has_value() && *deadline < wait_until) {
      wait_until = *deadline;
    }
    if (can_hedge && hedge_at < wait_until) wait_until = hedge_at;
    state->cv.wait_until(lock, wait_until);
  }
  const uint64_t bytes_sent = state->bytes_sent;
  const uint64_t bytes_received = state->bytes_received;
  lock.unlock();

  if (transport_metrics_ != nullptr) {
    // The logical per-shard row: one round-trip per Send, so R=1 and R>1
    // dashboards stay comparable.
    // (Bytes of attempts still in flight land in later rows.)
    const double rtt = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    transport_metrics_->RecordRoundTrip(shard, bytes_sent, bytes_received,
                                        rtt, result.ok());
  }
  return result;
}

std::future<Result<std::string>> ReplicaSetTransport::Send(
    size_t shard, std::string request) {
  return SendTraced(shard, std::move(request), nullptr, 0);
}

std::future<Result<std::string>> ReplicaSetTransport::SendTraced(
    size_t shard, std::string request,
    const std::shared_ptr<obs::QueryTrace>& trace,
    uint64_t parent_span_id) {
  const auto start = std::chrono::steady_clock::now();
  auto task = [this, shard, start, trace, parent_span_id,
               request = std::move(request)]() -> Result<std::string> {
    return RoundTripFrom(shard, request, start, trace, parent_span_id);
  };
  std::future<Result<std::string>> future =
      coordinator_pool_.Submit(std::move(task));
  if (!future.valid()) {
    std::promise<Result<std::string>> ready;
    ready.set_value(
        Status::FailedPrecondition("replica transport shutting down"));
    future = ready.get_future();
  }
  return future;
}

}  // namespace replica
}  // namespace tsb
