#ifndef TSB_WIRE_TRANSPORT_H_
#define TSB_WIRE_TRANSPORT_H_

#include <future>
#include <memory>
#include <string>

#include "common/result.h"

namespace tsb {

namespace obs {
class QueryTrace;
}  // namespace obs

namespace wire {

/// The process-boundary seam of the sharded executor: sub-queries travel
/// to a shard as one encoded request frame (wire/codec.h) and come back as
/// one encoded response frame, even in-process. ScatterGatherExecutor
/// speaks only this interface for its fan-out; its one implementation,
/// replica::ReplicaSetTransport, runs over in-process or socket channels,
/// so moving a shard out of process changes no executor code — the
/// serialization cost is already paid and tested for byte-identity.
///
/// Contract:
///  - `request` is a kQueryRequest or kTripleCollectRequest frame; the
///    returned future resolves to the matching response frame, or to a
///    Status when the shard could not answer at all (decode failure,
///    shard down, executor shutting down). Implementations must not
///    block Send itself on the shard's work.
///  - The future must become ready eventually even on failure — callers
///    enforce deadlines with wait_for and may abandon the future, so the
///    implementation's task must own its data (no dangling captures).
///  - Thread safety: Send may be called from any thread concurrently.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  virtual size_t num_shards() const = 0;

  /// Dispatches one encoded request frame to `shard`.
  virtual std::future<Result<std::string>> Send(size_t shard,
                                                std::string request) = 0;

  /// Traced dispatch: implementations that make routing decisions of
  /// their own (replica selection, hedging, failover) record one span per
  /// attempt into `trace`, parented under `parent_span_id`. The default
  /// forwards to Send — a transport with nothing to add needs no change.
  /// `trace` may outlive the query; implementations hold the shared_ptr
  /// from their attempt tasks.
  virtual std::future<Result<std::string>> SendTraced(
      size_t shard, std::string request,
      const std::shared_ptr<obs::QueryTrace>& trace,
      uint64_t parent_span_id) {
    (void)trace;
    (void)parent_span_id;
    return Send(shard, std::move(request));
  }
};

}  // namespace wire
}  // namespace tsb

#endif  // TSB_WIRE_TRANSPORT_H_
