#include "svc/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/hash.h"
#include "util/json_value.h"
#include "util/posix_io.h"

namespace crnkit::svc {

namespace {

/// retry_after_ms of a typed retriable response; 0 for anything else (a
/// verdict, a non-retriable error, a line that is not JSON).
std::int64_t retry_after_ms(const std::string& response) {
  if (response.find("\"retriable\"") == std::string::npos) return 0;
  try {
    const util::JsonValue v = util::JsonValue::parse(response);
    return v.get_bool("retriable", false) ? v.get_int("retry_after_ms", 0)
                                          : 0;
  } catch (const std::invalid_argument&) {
    return 0;
  }
}

[[noreturn]] void socket_fault(const std::string& what) {
  throw std::runtime_error("client: " + what + ": " + std::strerror(errno));
}

}  // namespace

Client::Client(std::string host, int port, int max_attempts,
               std::uint64_t seed)
    : host_(std::move(host)),
      port_(port),
      max_attempts_(max_attempts),
      jitter_state_(seed) {
  connect();
}

Client::~Client() { disconnect(); }

void Client::connect() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("client: bad host '" + host_ +
                                "' (want a dotted IPv4 address)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) socket_fault("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    socket_fault("cannot connect to " + host_ + ":" + std::to_string(port_));
  }
  fd_ = fd;
}

void Client::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

void Client::send(std::string_view text) {
  if (fd_ < 0) connect();
  if (!util::send_all(fd_, text.data(), text.size())) {
    socket_fault("send failed");
  }
}

long Client::fill() {
  char chunk[4096];
  const long n = util::read_some(fd_, chunk, sizeof(chunk));
  if (n > 0) buffer_.append(chunk, static_cast<std::size_t>(n));
  return n;
}

std::string Client::roundtrip(std::string_view line) {
  std::string request;
  request.reserve(line.size() + 1);
  request.append(line).push_back('\n');
  send(request);
  std::size_t newline = buffer_.find('\n');
  while (newline == std::string::npos) {
    const std::size_t scanned = buffer_.size();
    const long n = fill();
    if (n < 0) socket_fault("recv failed");
    if (n == 0) {
      throw std::runtime_error("client: connection closed mid-reply");
    }
    newline = buffer_.find('\n', scanned);
  }
  std::string response = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return response;
}

std::string Client::read_to_eof() {
  // A server that closes with request bytes still unread resets the
  // connection instead of sending FIN; either way the stream has ended.
  for (long n = 1; fd_ >= 0 && n > 0;) {
    n = fill();
    if (n < 0 && errno != ECONNRESET) socket_fault("recv failed");
  }
  return std::exchange(buffer_, {});
}

std::string Client::call(std::string_view line) {
  int sheds = 0;
  int faults = 0;
  for (;;) {
    std::string response;
    try {
      response = roundtrip(line);
    } catch (const std::runtime_error&) {
      disconnect();
      ++counters_.resets;
      if (++faults > max_attempts_) throw;
      ++counters_.retries;
      // Linear: consecutive faults mean the server's accept queue is
      // starved, so waiting longer each time is what clears it.
      sleep_jittered(5.0 * faults);
      continue;
    }
    const std::int64_t wait_ms = retry_after_ms(response);
    if (wait_ms <= 0) return response;
    ++counters_.sheds;
    if (++sheds > max_attempts_) return response;
    ++counters_.retries;
    sleep_jittered(static_cast<double>(wait_ms));
  }
}

void Client::sleep_jittered(double ms) {
  const double jitter = 0.5 + 0.5 * util::splitmix_uniform(jitter_state_);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(ms * jitter));
}

}  // namespace crnkit::svc
