// Blocking line-protocol client for qhip_serve (docs/SERVING.md).
//
// One Client is one TCP connection. call() is the synchronous convenience
// (one request, wait for its response); load drivers with several requests
// in flight use send_line/recv_line directly and match responses to requests by the "id"
// tag they attached.
#pragma once

#include <string>

#include "src/engine/engine.h"

namespace qhip::serve {

class Client {
 public:
  // Connects immediately; throws qhip::Error on failure.
  Client(const std::string& host, unsigned short port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& o) noexcept;

  // Sends one message (appends the '\n' delimiter). Throws on a dead socket.
  void send_line(const std::string& line);

  // Blocks for the next LF-terminated response line (stripped of the LF).
  // Returns false on EOF — the server closed (e.g. finished draining).
  bool recv_line(std::string* line);

  // Synchronous request/response round trip.
  engine::SimResult call(const engine::SimRequest& req,
                         const std::string& id = {});

  // Liveness probe: {"op":"ping"} answered with pong.
  bool ping();

  // Engine metrics (Prometheus text) via {"op":"metrics"}.
  std::string metrics();

  // Half-closes the write side: the server sees EOF, finishes what is in
  // flight on this connection, flushes, and closes.
  void finish_writes();

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string acc_;  // buffered bytes beyond the last returned line
};

}  // namespace qhip::serve
