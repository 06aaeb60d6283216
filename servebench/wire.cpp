#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <thread>

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

// waitpid with a deadline; true when the child was reaped.
bool reap_within(pid_t pid, double seconds, int* status) {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return true;  // already gone
    if (Clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Daemon::Daemon(std::string exe, std::string work_dir,
               std::vector<std::string> args)
    : exe_(std::move(exe)), work_dir_(std::move(work_dir)),
      args_(std::move(args)) {}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::kill_and_reap() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  reap_within(pid_, 10.0, &status);
  pid_ = -1;
}

bool Daemon::start(std::string* err) {
  static int serial = 0;
  port_file_ = work_dir_ + "/serve." + std::to_string(getpid()) + "." +
               std::to_string(serial++) + ".port";
  unlink(port_file_.c_str());
  const std::string log = work_dir_ + "/serve.log";

  std::vector<std::string> argv_s = {exe_, "--port", "0", "--port-file",
                                     port_file_};
  argv_s.insert(argv_s.end(), args_.begin(), args_.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    *err = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }

  const Clock::time_point until = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < until) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *err = "dyncg_serve exited during startup (see " + log + ")";
      return false;
    }
    // The daemon writes "PORT\n" once listening; waiting for the newline
    // means a read racing that write never sees a truncated number.
    std::ifstream in(port_file_);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const int p = std::atoi(text.c_str());
    if (!text.empty() && text.back() == '\n' && p > 0) {
      port_ = p;
      unlink(port_file_.c_str());
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  kill_and_reap();
  *err = "dyncg_serve did not start listening within 20 s";
  return false;
}

double Daemon::peak_rss_mib() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool Daemon::stop(std::string* err) {
  if (pid_ <= 0) return true;
  kill(pid_, SIGTERM);
  int status = 0;
  if (!reap_within(pid_, 30.0, &status)) {
    kill_and_reap();
    *err = "dyncg_serve did not drain within 30 s of SIGTERM";
    return false;
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *err = "dyncg_serve exited abnormally after SIGTERM (status " +
           std::to_string(status) + ")";
    return false;
  }
  return true;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

bool Client::connect_to(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool Client::send_line(const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    ssize_t n = send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::recv_line(std::string* line) {
  std::size_t scanned = 0;
  for (;;) {
    std::size_t nl = buf_.find('\n', scanned);
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    scanned = buf_.size();
    char chunk[65536];
    ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool response_ok(const std::string& response) {
  return response.compare(0, 14, "{\"status\":\"OK\"") == 0;
}

std::uint64_t response_u64(const std::string& response, const char* key) {
  const std::size_t at = response.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(response.c_str() + at + std::strlen(key), nullptr, 10);
}

std::uint64_t response_rounds(const std::string& response) {
  return response_u64(response, "\"cost\":{\"rounds\":");
}

double response_time(const std::string& response) {
  static const char kKey[] = "\"t\":\"";
  const std::size_t at = response.find(kKey);
  if (at == std::string::npos) return -1.0;
  return std::strtod(response.c_str() + at + sizeof(kKey) - 1, nullptr);
}

}  // namespace servebench
