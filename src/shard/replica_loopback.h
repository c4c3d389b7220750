#ifndef TSB_SHARD_REPLICA_LOOPBACK_H_
#define TSB_SHARD_REPLICA_LOOPBACK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "replica/replica_set.h"
#include "shard/frame_handler.h"
#include "shard/sharded_store.h"

namespace tsb {
namespace shard {

/// In-process replica::ReplicaChannel over a ShardFrameHandler — the
/// loopback replica mode. One instance stands in for one shard-server
/// process, with the faults a real process exhibits made injectable:
///
///   - SetDown(true): every round-trip fails (a SIGKILLed server);
///   - InjectFailures(n): the next n round-trips fail (transient errors);
///   - SetDelay(s): round-trips stall s seconds first (a slow replica; a
///     stall past the deadline fails with kResourceExhausted, exactly
///     like a socket read timing out);
///   - SetStallEvery(n, s): every n-th round-trip on this channel stalls
///     s seconds (an intermittent tail — GC pause, page-cache miss. The
///     stall tracks the channel's own traffic, so EWMA routing cannot
///     simply route around it the way it sidelines a permanently slow
///     replica; this is the tail hedged reads exist to cut).
///
/// Responses carry the same serving stamp a real shard_server writes, so
/// epoch quarantine is testable in-process too.
class LoopbackReplicaChannel : public replica::ReplicaChannel {
 public:
  /// `handler` must outlive-by-copy (it is copied in); `label` names the
  /// channel in errors, e.g. "s1r0".
  LoopbackReplicaChannel(ShardFrameHandler handler, std::string label);

  Result<std::string> RoundTrip(const std::string& request,
                                const net::Deadline& deadline,
                                net::RoundTripTelemetry* telemetry) override;

  std::string Describe() const override { return "loopback:" + label_; }

  /// Fault injection (safe from any thread).
  void SetDown(bool down);
  void InjectFailures(uint64_t count);
  void SetDelay(double seconds);
  void SetStallEvery(uint64_t nth, double seconds);

  uint64_t round_trips() const;

 private:
  ShardFrameHandler handler_;
  std::string label_;

  mutable std::mutex mu_;
  bool down_ = false;
  uint64_t fail_next_ = 0;
  double delay_seconds_ = 0.0;
  uint64_t stall_every_ = 0;
  double stall_seconds_ = 0.0;
  uint64_t round_trips_ = 0;
};

/// An N-shards × R-replicas loopback grid over one sharded precompute:
/// replica r of shard s gets its own ShardFrameHandler (own stamp fn with
/// replica id r, shared StoreHandle so epoch swaps reach every replica)
/// and its own fault-injection switchboard. `channels` moves into a
/// ReplicaSetTransport; `raw[s][r]` keeps the injection handles (non-
/// owning — valid for the transport's lifetime).
struct LoopbackReplicaGrid {
  std::vector<std::vector<std::unique_ptr<replica::ReplicaChannel>>>
      channels;
  std::vector<std::vector<LoopbackReplicaChannel*>> raw;
};

/// `engines[s]` is shard s's engine; every replica of a shard shares the
/// shard's engine and store handle — the in-process analogue of R
/// processes that built identical shards. At R=1 this is the
/// ScatterGatherExecutor's built-in transport.
LoopbackReplicaGrid MakeLoopbackReplicaGrid(
    storage::Catalog* db, const ShardedTopologyStore* store,
    const std::vector<const engine::Engine*>& engines, size_t replicas);

}  // namespace shard
}  // namespace tsb

#endif  // TSB_SHARD_REPLICA_LOOPBACK_H_
