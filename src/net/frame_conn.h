#ifndef TSB_NET_FRAME_CONN_H_
#define TSB_NET_FRAME_CONN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "wire/codec.h"

namespace tsb {
namespace net {

/// Absolute per-operation deadline (steady clock); unset blocks forever.
/// Absolute rather than relative so one request-scoped deadline threads
/// through connect → write → read without each hop restarting the budget.
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// Deadline `seconds` from now; non-positive means "no deadline".
Deadline DeadlineAfter(double seconds);

/// One blocking-I/O socket connection carrying length-prefixed WireFrames
/// (wire/codec.h) — the byte-shipping layer under net::EndpointClient and
/// net::ShardServer, over TCP or Unix-domain stream sockets.
///
/// ReadFrame reassembles a frame from however many partial reads the
/// kernel delivers, validating the header incrementally with
/// wire::InspectFrame so garbage, an unsupported version, or a length
/// beyond `max_frame_bytes` is rejected at the first offending byte —
/// never buffered to completion, never read past. WriteFrame loops over
/// short writes. Both honor an optional Deadline via poll(2); a timed-out
/// or failed connection is poisoned (mid-frame state is unrecoverable) and
/// must be closed.
///
/// Thread safety: none. A connection belongs to one request at a time
/// (EndpointClient's pool enforces this); reader and writer sides of a
/// server conn belong to its one serving thread.
class FrameConn {
 public:
  /// Takes ownership of a connected stream-socket fd.
  explicit FrameConn(int fd);
  ~FrameConn();

  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Reads exactly one frame (header + payload) into *frame. The payload
  /// length field is capped at `max_payload_bytes` (see
  /// wire::kDefaultMaxFramePayload). Error codes:
  ///   - kOutOfRange: the peer closed cleanly at a frame boundary (EOF);
  ///   - kResourceExhausted: the deadline expired;
  ///   - kUnimplemented: the peer speaks an unsupported wire version;
  ///   - kInvalidArgument: malformed bytes (bad magic/kind, oversized
  ///     length) or EOF mid-frame;
  ///   - kInternal: socket-level failure.
  Status ReadFrame(std::string* frame, size_t max_payload_bytes,
                   const Deadline& deadline = Deadline());

  /// Writes one complete frame, looping over short writes.
  Status WriteFrame(std::string_view frame,
                    const Deadline& deadline = Deadline());

  /// Dials a TCP endpoint (numeric host, e.g. "127.0.0.1").
  static Result<std::unique_ptr<FrameConn>> ConnectTcp(
      const std::string& host, uint16_t port,
      const Deadline& deadline = Deadline());

  /// Dials a Unix-domain stream socket at `path`.
  static Result<std::unique_ptr<FrameConn>> ConnectUnix(
      const std::string& path, const Deadline& deadline = Deadline());

 private:
  /// Waits for readability/writability until the deadline.
  Status Wait(short events, const Deadline& deadline) const;
  Status ReadExact(char* out, size_t n, const Deadline& deadline,
                   bool eof_ok_at_start, bool* clean_eof);

  int fd_;
};

/// A listening socket (TCP or Unix-domain) accepting FrameConns.
/// Close() from any thread unblocks a pending Accept (which then returns
/// an error) — the shutdown path of net::ShardServer.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;

  /// Binds and listens on `host:port`; port 0 picks an ephemeral port
  /// (read it back with port()).
  static Result<Listener> ListenTcp(const std::string& host, uint16_t port);

  /// Binds and listens on a Unix-domain socket at `path`. A stale socket
  /// file from a crashed predecessor is unlinked first.
  static Result<Listener> ListenUnix(const std::string& path);

  /// Blocks until a connection arrives (or Close). The accepted conn is
  /// ready for ReadFrame (its fd is non-blocking, like every FrameConn —
  /// the poll-bounded I/O loops depend on it).
  Result<std::unique_ptr<FrameConn>> Accept();

  void Close();
  bool valid() const { return fd_.load() >= 0; }
  uint16_t port() const { return port_; }
  const std::string& uds_path() const { return uds_path_; }

 private:
  /// Atomic because Close() retires the fd from any thread while the
  /// accept thread is reading it — the designed way to unblock Accept.
  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;      // Bound TCP port (0 for UDS).
  std::string uds_path_;   // Bound socket file (empty for TCP); unlinked
                           // on Close.
};

}  // namespace net
}  // namespace tsb

#endif  // TSB_NET_FRAME_CONN_H_
