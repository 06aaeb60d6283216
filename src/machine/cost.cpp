#include "machine/cost.hpp"

#include <sstream>

namespace dyncg {

std::string CostSnapshot::to_string() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " messages=" << messages
     << " local_ops=" << local_ops << " time=" << time();
  return os.str();
}

std::string CostSnapshot::to_json() const {
  json::Writer w;
  write_json(w);
  return w.take();
}

void CostSnapshot::write_json(json::Writer& w) const {
  w.begin_object();
  w.key("rounds");
  w.value(rounds);
  w.key("messages");
  w.value(messages);
  w.key("local_ops");
  w.value(local_ops);
  w.key("time");
  w.value(time());
  w.end_object();
}

}  // namespace dyncg
