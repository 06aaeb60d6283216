#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

// The two ends of the loopback: a dyncg_serve child process and a blocking
// line client.
namespace servebench {

// One dyncg_serve process.  The destructor kills and reaps a daemon that
// was not stopped, and the child carries PR_SET_PDEATHSIG, so no daemon
// outlives the harness.
class Daemon {
 public:
  Daemon(std::string exe, std::string work_dir, std::vector<std::string> args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawn and wait (up to 20 s) until the port file names the listening
  // port.  On failure `err` says why and the child is reaped.
  bool start(std::string* err);
  int port() const { return port_; }
  // Peak resident set (VmHWM) so far, in MiB; 0 if unreadable.
  double peak_rss_mib() const;
  // SIGTERM (graceful drain) and reap; false unless it exits 0 within 30 s.
  bool stop(std::string* err);

 private:
  void kill_and_reap();

  std::string exe_;
  std::string work_dir_;
  std::vector<std::string> args_;
  std::string port_file_;
  pid_t pid_ = -1;
  int port_ = 0;
};

// Blocking line-oriented loopback client (TCP_NODELAY).
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect_to(int port);
  bool send_line(const std::string& line);
  bool recv_line(std::string* line);
  bool round_trip(const std::string& line, std::string* response) {
    return send_line(line) && recv_line(response);
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// Response helpers that avoid a full JSON parse in the timed loop.
bool response_ok(const std::string& response);
// cost.rounds of a response (0 when absent).
std::uint64_t response_rounds(const std::string& response);
// The integer after `key` (e.g. "\"members\":"); 0 when absent.
std::uint64_t response_u64(const std::string& response, const char* key);
// A fleet response's session time: its "t" string read back with strtod.
double response_time(const std::string& response);

}  // namespace servebench
