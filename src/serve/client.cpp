#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <utility>
#include <vector>

#include "envelope/dynamic_envelope.hpp"
#include "envelope/scenario_key.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"

namespace dyncg {
namespace serve {

int resolve_port(int port, const std::string& port_file) {
  if (port > 0) return port;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(port_file);
    int p = 0;
    if (in >> p && p > 0) return p;
    usleep(100 * 1000);
  }
  return -1;
}

Client::Client(int port, int rcvbuf) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (attempt > 0) usleep(100 * 1000);
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    if (rcvbuf > 0) {
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      fd_ = fd;
      return;
    }
    close(fd);
  }
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

bool Client::send(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string Client::recv_line() {
  for (;;) {
    std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return "";
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Client::round_trip(const std::string& request) {
  return send(request + "\n") ? recv_line() : "";
}

std::string oracle_mismatch(const std::string& request_line,
                            const std::string& response) {
  json::Value v;
  const json::Value* status = nullptr;
  if (!json::parse(response, &v) || (status = v.find("status")) == nullptr ||
      !status->is_string()) {
    return "the response is not a JSON object with a status";
  }
  const bool ok = status->string == "OK";
  StatusOr<Request> req = parse_request(request_line);
  if (!req.is_ok()) {
    return ok ? "OK for a line the parser rejects: " + req.status().to_string()
              : "";
  }
  const Request& r = req.value();
  if (is_admin_op(r.op) || is_fleet_op(r.op)) return "";
  StatusOr<CachedResult> want = run_query(r);
  if (!want.is_ok()) {
    return ok ? "OK for a line the engine rejects: " + want.status().to_string()
              : "";
  }
  if (!ok) return status->string + " for a line the parser and engine accept";
  const std::string miss =
      render_result(r.id_json, r.op, want.value(), false, r.fingerprint);
  if (response == miss ||
      response ==
          render_result(r.id_json, r.op, want.value(), true, r.fingerprint)) {
    return "";
  }
  return "the response differs from an in-process run_query: want " + miss;
}

std::string fleet_oracle_mismatch(
    const std::string& response,
    const std::map<std::uint64_t, Trajectory>& members, double t, int k) {
  json::Value v;
  const json::Value* result = nullptr;
  const json::Value* key = nullptr;
  if (!json::parse(response, &v) || (result = v.find("result")) == nullptr ||
      !result->is_string() || (key = v.find("key")) == nullptr ||
      !key->is_string()) {
    return "the response has no string result and key";
  }
  std::vector<std::pair<std::uint64_t, Polynomial>> scores;
  scores.reserve(members.size());
  for (const auto& [id, point] : members) {
    scores.emplace_back(id,
                        fleet_score(point, fleet_origin(point.dimension())));
  }
  DynamicEnvelope want =
      canonical_rebuild(std::move(scores), t, /*take_min=*/true,
                        fleet_s_bound(k));
  if (result->string != want.result_string()) {
    return "result differs from canonical_rebuild: want " +
           want.result_string();
  }
  const std::string want_key = fingerprint_hex(want.state_fingerprint());
  if (key->string != want_key) {
    return "key differs from canonical_rebuild: want " + want_key;
  }
  return "";
}

}  // namespace serve
}  // namespace dyncg
