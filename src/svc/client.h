// svc::Client — the blocking client for the line-JSON wire of
// `crnc serve` (svc::Server). Tools and tests that talk to a live server
// all go through it, so there is one retry contract, owned by call():
//
//  * A response with "retriable": true and retry_after_ms > 0 (the
//    server's typed `overloaded` and `spill_io` sheds) is retried after
//    retry_after_ms x jitter, jitter uniform in [0.5, 1].
//  * A socket fault (refused connect, reset, EOF before a full reply)
//    drops the connection, reconnects and retries after
//    5 ms x n x jitter, n the number of faults so far in this call.
//  * Sheds and faults each have their own budget of `max_attempts`
//    retries per call. With the shed budget spent, call() returns the
//    last shed; with the fault budget spent, it rethrows the fault.
//    Every other response (a verdict, a non-retriable error) is returned
//    at once.
//
// send(), roundtrip() and read_to_eof() are the raw wire (HTTP on the
// same port, half-sent requests): no retries, std::runtime_error on any
// socket fault (for read_to_eof(), any but the reset that ends a
// stream). Sends go through util::send_all (MSG_NOSIGNAL), so a reset
// peer never raises SIGPIPE in the caller's process. One Client per
// thread.
#ifndef CRNKIT_SVC_CLIENT_H_
#define CRNKIT_SVC_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace crnkit::svc {

class Client {
 public:
  /// What call() did beyond single round trips, summed over all calls.
  struct Counters {
    std::size_t sheds = 0;    ///< typed retriable responses received
    std::size_t resets = 0;   ///< socket faults (each drops the connection)
    std::size_t retries = 0;  ///< requests re-sent after a shed or a fault
  };

  /// Connects to `host` (dotted IPv4) : `port`; throws std::runtime_error
  /// on failure. `max_attempts` is call()'s per-call budget for each
  /// retry kind; `seed` picks the backoff jitter stream.
  Client(std::string host, int port, int max_attempts = 5,
         std::uint64_t seed = 1);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `text` as is, reconnecting first after a disconnect().
  void send(std::string_view text);
  /// Sends `line` plus '\n' and returns the next response line.
  std::string roundtrip(std::string_view line);
  /// Everything the server sends until it closes (or resets) the
  /// connection.
  [[nodiscard]] std::string read_to_eof();
  /// roundtrip() under the retry contract in the header comment.
  [[nodiscard]] std::string call(std::string_view line);
  /// Closes the connection; the next request opens a new one.
  void disconnect();

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  void connect();
  /// Receives one chunk into buffer_: its size, 0 on orderly close, -1
  /// on a socket error (errno set).
  long fill();
  void sleep_jittered(double ms);

  std::string host_;
  int port_;
  int max_attempts_;
  std::uint64_t jitter_state_;
  int fd_ = -1;
  std::string buffer_;
  Counters counters_;
};

}  // namespace crnkit::svc

#endif  // CRNKIT_SVC_CLIENT_H_
