#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "dyncg/motion.hpp"

// The client side of the wire protocol (serve/protocol.hpp): a blocking
// loopback line client and the two oracles that decide whether a response
// is exactly what the server must send.  dyncg_load, dyncg_chaos and the
// server tests all speak to dyncg_serve through this one module.
namespace dyncg {
namespace serve {

// `port` when it is positive; otherwise the port dyncg_serve wrote to
// `port_file` after binding, polled for up to ~10 s.  -1 when none appears.
int resolve_port(int port, const std::string& port_file);

// Blocking line client on 127.0.0.1; closes its socket on destruction.
class Client {
 public:
  // Connects to 127.0.0.1:port, retrying a refused connect for ~5 s (the
  // server may still be starting) on a fresh socket each time: POSIX leaves
  // a socket unspecified after a failed connect.  `rcvbuf` > 0 sets
  // SO_RCVBUF first, so a client that never reads backs up the server.
  explicit Client(int port, int rcvbuf = 0);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  // The socket, for callers that drive it themselves (dyncg_chaos's
  // non-blocking lanes).
  int fd() const { return fd_; }

  // Writes `bytes` in full.  Callers supply the newlines, so a burst of
  // requests stays one write.
  bool send(const std::string& bytes);
  // The next line without its '\n'; "" at EOF or on error.  Responses are
  // never empty, so "" is never a real response.
  std::string recv_line();
  // send(request + "\n"), then recv_line().
  std::string round_trip(const std::string& request);

 private:
  int fd_ = -1;
  std::string buf_;  // bytes read past the last returned line
};

// Empty when `response` is exactly what a server must answer to
// `request_line`; otherwise what is wrong with it.
//   - An OK answer to a scenario op must be byte-identical to render_result
//     of an in-process run_query, as a hit or as a miss: `key`, `machine`,
//     `cost` and `result` all count.
//   - A line that parse_request or run_query rejects must not be answered
//     OK, and a line both accept must be.
//   - Admin and fleet ops are not checked (their answers depend on server
//     state; fleet_oracle_mismatch covers fleet_query).
std::string oracle_mismatch(const std::string& request_line,
                            const std::string& response);

// Empty when a fleet_query `response` carries the `result` and `key` of
// canonical_rebuild over `members` at session time `t`, each member scored
// by its squared distance to the origin under motion degree `k`; otherwise
// what differs.
std::string fleet_oracle_mismatch(
    const std::string& response,
    const std::map<std::uint64_t, Trajectory>& members, double t, int k);

}  // namespace serve
}  // namespace dyncg
