#ifndef TSB_NET_ENDPOINT_CLIENT_H_
#define TSB_NET_ENDPOINT_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/frame_conn.h"
#include "wire/codec.h"

namespace tsb {
namespace net {

/// Where one server listens. Unix-domain when `uds_path` is set (the
/// single-box default: lowest latency, no port juggling), else TCP
/// host:port.
struct ShardEndpoint {
  std::string uds_path;
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  static ShardEndpoint Unix(std::string path) {
    ShardEndpoint endpoint;
    endpoint.uds_path = std::move(path);
    return endpoint;
  }
  static ShardEndpoint Tcp(std::string host, uint16_t port) {
    ShardEndpoint endpoint;
    endpoint.host = std::move(host);
    endpoint.port = port;
    return endpoint;
  }

  std::string ToString() const {
    return uds_path.empty() ? host + ":" + std::to_string(port)
                            : "unix:" + uds_path;
  }
};

struct EndpointClientConfig {
  /// Idle connections kept pooled; checkouts beyond the pool dial fresh,
  /// and returns beyond the cap close instead of pooling.
  size_t max_pooled_conns = 4;
  /// Deadline for establishing one connection (clipped to the request
  /// deadline when that is tighter).
  double connect_timeout_seconds = 2.0;
  /// Per-frame payload cap on responses (poisoned/hostile length fields).
  size_t max_payload_bytes = wire::kDefaultMaxFramePayload;
  /// Reconnect backoff: after a dial failure the endpoint is not re-dialed
  /// until the backoff window passes (doubling per consecutive failure up
  /// to the max); round-trips inside the window fail fast instead of
  /// burning a connect timeout each. A successful dial resets the window.
  double backoff_initial_seconds = 0.01;
  double backoff_max_seconds = 2.0;
};

/// Telemetry of one RoundTrip call, for the caller's metrics stream.
struct RoundTripTelemetry {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  /// Successful dials after this endpoint had failed — the signal a dead
  /// server came back.
  uint64_t reconnects = 0;
};

/// One endpoint's pooled, backoff-disciplined frame client: the
/// connection-management core under replica::SocketReplicaChannel, so the
/// replica layer pools per *replica* endpoint, not per shard.
///
/// RoundTrip = checkout (pool hit, or dial under the backoff gate) →
/// write frame → read frame → return conn to the pool. A round-trip that
/// fails on a *pooled* connection retries once on a freshly dialed one
/// (the pooled conn may simply have outlived a server restart) — which is
/// also the reconnect path: the first request after a server comes back
/// heals the pool. Every wait — backoff fail-fast, connect, write, read,
/// and the fresh-dial retry — is charged against the caller's one
/// absolute deadline; once it expires the client fails with
/// kResourceExhausted instead of starting (or finishing) more work, so a
/// retry can never overshoot the caller's budget.
///
/// Thread safety: RoundTrip may be called from any thread; the pool and
/// backoff state are mutex-guarded. `outstanding()` counts round-trips
/// currently inside RoundTrip — incremented and decremented by the call
/// itself, so the gauge stays correct even when a caller abandons the
/// enclosing future (cancellation-safe in-flight accounting).
class EndpointClient {
 public:
  EndpointClient(ShardEndpoint endpoint,
                 EndpointClientConfig config = EndpointClientConfig{});

  EndpointClient(const EndpointClient&) = delete;
  EndpointClient& operator=(const EndpointClient&) = delete;

  /// One request frame → response frame round-trip under `deadline`
  /// (unset blocks until the socket resolves it). `telemetry` (optional)
  /// receives byte counts and reconnect events.
  Result<std::string> RoundTrip(const std::string& request,
                                const Deadline& deadline,
                                RoundTripTelemetry* telemetry = nullptr);

  const ShardEndpoint& endpoint() const { return endpoint_; }

  /// Round-trips currently inside RoundTrip (load signal for routing).
  uint64_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

  /// Drops every pooled connection (tests; forcing reconnects).
  void CloseIdleConnections();

 private:
  /// Pops a pooled connection, or dials within the backoff discipline.
  /// *pooled reports which, so the caller knows a failure may just be a
  /// stale connection worth one retry.
  Result<std::unique_ptr<FrameConn>> Checkout(const Deadline& deadline,
                                              bool* pooled,
                                              RoundTripTelemetry* telemetry);
  Result<std::unique_ptr<FrameConn>> Dial(const Deadline& deadline);
  void Return(std::unique_ptr<FrameConn> conn);
  void NoteConnectionFailure();

  /// One attempt: checkout/dial, write, read. Closes the conn on failure.
  Result<std::string> Attempt(const std::string& request,
                              const Deadline& deadline, bool* was_pooled,
                              RoundTripTelemetry* telemetry);

  ShardEndpoint endpoint_;
  EndpointClientConfig config_;
  std::atomic<uint64_t> outstanding_{0};

  std::mutex mu_;
  std::vector<std::unique_ptr<FrameConn>> idle_;
  /// Backoff gate (guarded by mu_).
  uint64_t consecutive_failures_ = 0;
  std::chrono::steady_clock::time_point next_attempt_{};
  /// True after any connection-level failure; the next successful dial
  /// counts as a reconnect.
  bool had_failure_ = false;
};

/// True when `deadline` is set and already in the past.
bool DeadlineExpired(const Deadline& deadline);

}  // namespace net
}  // namespace tsb

#endif  // TSB_NET_ENDPOINT_CLIENT_H_
