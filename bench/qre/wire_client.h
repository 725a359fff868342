// Minimal blocking client for the service's framed wire protocol
// (src/server/protocol.h), used by the benchmark's closed-loop connections.
// Deliberately naive — blocking recv, no deadlines — because the server is
// the thing under test.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <utility>

#include "server/protocol.h"

namespace fastqre::benchqre {

class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { Close(); }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    reader_ = FrameReader();
    return true;
  }

  bool Send(const Request& req) {
    const std::string frame = EncodeFrame(SerializeRequest(req));
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking read of the next response frame. False on EOF, a socket
  /// error, or a malformed frame.
  bool Read(Response* resp) {
    std::string payload;
    for (;;) {
      auto next = reader_.Next(&payload);
      if (!next.ok()) return false;
      if (*next) break;
      char buf[64 << 10];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      reader_.Feed(buf, static_cast<size_t>(n));
    }
    auto parsed = ParseResponse(payload);
    if (!parsed.ok()) return false;
    *resp = std::move(*parsed);
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace fastqre::benchqre
