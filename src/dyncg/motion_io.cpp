#include "dyncg/motion_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace dyncg {

std::string to_text(const MotionSystem& system) {
  std::ostringstream os;
  os.precision(17);
  os << "dyncg-motion 1\n";
  os << "dim " << system.dimension() << "\n";
  for (std::size_t i = 0; i < system.size(); ++i) {
    os << "point ";
    for (std::size_t c = 0; c < system.dimension(); ++c) {
      if (c) os << " ; ";
      const Polynomial& p = system.point(i).coordinate(c);
      if (p.is_zero()) {
        os << "0";
      } else {
        for (int j = 0; j <= p.degree(); ++j) {
          if (j) os << " ";
          os << p.coefficient(j);
        }
      }
    }
    os << "\n";
  }
  return os.str();
}

StatusOr<MotionSystem> try_motion_from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t dim = 0;
  bool header_seen = false;
  std::vector<Trajectory> points;
  std::size_t lineno = 0;
  auto fail = [&lineno](const std::string& msg) {
    return Status::parse_error("line " + std::to_string(lineno) + ": " + msg);
  };
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and whitespace-only lines.
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;
    if (tok == "dyncg-motion") {
      int version = 0;
      if (!(ls >> version) || version != 1) {
        return fail("unsupported motion file version");
      }
      header_seen = true;
    } else if (tok == "dim") {
      if (!header_seen) return fail("motion file missing header");
      if (!(ls >> dim) || dim < 1) return fail("bad dim line in motion file");
    } else if (tok == "point") {
      if (dim < 1) return fail("point before dim in motion file");
      std::vector<Polynomial> coords;
      std::vector<double> cur;
      std::string w;
      while (ls >> w) {
        if (w == ";") {
          coords.push_back(Polynomial(cur));
          cur.clear();
        } else {
          // The whole token must be one finite double: no partial parses
          // ("1.5x"), no overflow ("1e999"), no "nan" or "inf".
          double v = 0.0;
          const char* end = w.data() + w.size();
          std::from_chars_result r = std::from_chars(w.data(), end, v);
          if (r.ec != std::errc() || r.ptr != end || !std::isfinite(v)) {
            return fail("bad coefficient \"" + w + "\" in motion file point");
          }
          cur.push_back(v);
        }
      }
      coords.push_back(Polynomial(cur));
      if (coords.size() != dim) {
        return fail("wrong coordinate count in motion file point: got " +
                    std::to_string(coords.size()) + ", expected " +
                    std::to_string(dim));
      }
      points.push_back(Trajectory(std::move(coords)));
    } else {
      return fail("unknown directive in motion file: \"" + tok + "\"");
    }
  }
  if (!header_seen) return Status::parse_error("not a dyncg-motion file");
  if (points.empty()) return Status::parse_error("motion file has no points");
  return MotionSystem::try_create(dim, std::move(points));
}

Status try_save_motion_system(const MotionSystem& system,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::io_error("cannot open motion file for writing: " + path);
  }
  out << to_text(system);
  out.flush();
  if (!out) return Status::io_error("motion file write failed: " + path);
  return Status::ok();
}

StatusOr<MotionSystem> try_load_motion_system(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::io_error("cannot open motion file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return try_motion_from_text(buf.str());
}

}  // namespace dyncg
