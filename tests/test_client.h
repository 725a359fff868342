// Minimal blocking socket client for the server tests (server_test,
// wire_chaos_test): one loopback connection that speaks the length-prefixed
// frames of server/protocol.h.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "server/protocol.h"

namespace fastqre {

/// EOF, send failures and framing errors are plain return values, not test
/// failures: chaos tests expect all three, and tests of a healthy
/// connection assert them at the call site.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() { Close(); }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return connected_; }
  bool framing_error() const { return framing_error_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t rc = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                                MSG_NOSIGNAL);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(rc);
    }
    return true;
  }

  bool Send(const Request& req) {
    return SendRaw(EncodeFrame(SerializeRequest(req)));
  }

  /// Next frame payload; false on EOF, reset, or a framing error (the
  /// latter also sets framing_error()).
  bool ReceiveFrame(std::string* payload) {
    char buf[4096];
    for (;;) {
      Result<bool> next = reader_.Next(payload);
      if (!next.ok()) {
        framing_error_ = true;
        return false;
      }
      if (*next) return true;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      reader_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// Parsed next response; fails the test on EOF or a framing error (use
  /// where the connection is supposed to be healthy).
  Response Receive() {
    std::string payload;
    EXPECT_TRUE(ReceiveFrame(&payload)) << "connection closed";
    return ParseResponse(payload).ValueOrDie();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool framing_error_ = false;
  FrameReader reader_;
};

}  // namespace fastqre
