#include "support/build_info.hpp"

#include <cstdio>

namespace dyncg {

namespace {

#if defined(__unix__) || defined(__APPLE__)
std::string run_command(const std::string& cmd) {
  std::string out;
  if (std::FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128];
    std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, p);
    if (pclose(p) == 0 && got > 0) out.assign(buf, got);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}
#endif

}  // namespace

std::string git_revision() {
#if defined(__unix__) || defined(__APPLE__)
  const std::string base = std::string("git -C \"") + DYNCG_SOURCE_DIR + "\" ";
  std::string rev = run_command(base + "rev-parse --short HEAD 2>/dev/null");
  if (!rev.empty() &&
      rev.find_first_not_of("0123456789abcdef") == std::string::npos) {
    if (!run_command(base + "status --porcelain 2>/dev/null").empty()) {
      rev += "-dirty";
    }
    return rev;
  }
#endif
  return DYNCG_GIT_REV;
}

}  // namespace dyncg
