#include "flow/flow_config.hpp"

#include <stdexcept>

#include "util/config.hpp"

namespace cagvt::flow {

void FlowConfig::validate() const {
  if (!enabled()) return;
  if (mem <= 0) throw std::invalid_argument("--flow: mem budget must be > 0 events");
  if (!(storm > 0.0) || !(storm <= 1.0))
    throw std::invalid_argument("--flow: storm threshold must be in (0, 1]");
  if (!(clamp >= 1))
    throw std::invalid_argument(
        "--flow: clamp window must be >= 1 virtual-time unit (the throttle "
        "bounds execution to GVT + clamp)");
}

FlowConfig parse_flow(std::string_view text) {
  FlowConfig cfg;
  std::string_view kind = text;
  std::string_view params;
  if (const auto comma = text.find(','); comma != std::string_view::npos) {
    kind = text.substr(0, comma);
    params = text.substr(comma + 1);
  }
  if (kind == "off" || kind.empty()) {
    cfg.kind = FlowKind::kOff;
    if (!params.empty()) throw std::invalid_argument("--flow=off takes no parameters");
    return cfg;
  }
  if (kind != "bounded")
    throw std::invalid_argument("unknown --flow mode: '" + std::string(kind) +
                                "' (expected off or bounded)");
  cfg.kind = FlowKind::kBounded;
  const Options opts = Options::parse_kv(params);
  cfg.mem = opts.get_int("mem", cfg.mem);
  cfg.storm = opts.get_double("storm", cfg.storm);
  cfg.clamp = opts.get_double("clamp", cfg.clamp);
  for (const std::string& key : opts.unused_keys())
    throw std::invalid_argument("unknown --flow parameter: '" + key + "'");
  cfg.validate();
  return cfg;
}

const char* to_string(FlowKind kind) {
  switch (kind) {
    case FlowKind::kOff: return "off";
    case FlowKind::kBounded: return "bounded";
  }
  return "?";
}

std::string to_string(const FlowConfig& cfg) {
  if (cfg.kind == FlowKind::kOff) return "off";
  // Emit only non-default parameters, so parse(to_string(cfg)) == cfg and
  // to_string(parse(text)) round-trips canonical text.
  const FlowConfig defaults;
  std::string out = "bounded";
  if (cfg.mem != defaults.mem) out += ",mem=" + std::to_string(cfg.mem);
  if (cfg.storm != defaults.storm) out += ",storm=" + std::to_string(cfg.storm);
  if (cfg.clamp != defaults.clamp) out += ",clamp=" + std::to_string(cfg.clamp);
  return out;
}

}  // namespace cagvt::flow
