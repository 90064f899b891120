// Building your own simulation model against the public Model API.
//
// This example simulates a store-and-forward packet network: LPs are
// switches in a 2-D torus; each packet hops toward its destination with an
// exponential service delay per hop, and switches count the packets they
// forward. It shows the three rules every CA-GVT model must follow:
//
//   1. State lives in the byte block the engine hands you (it is
//      checkpointed and restored around rollbacks).
//   2. All randomness comes from CounterRng keyed by the event uid, so
//      re-execution after a rollback is bit-identical.
//   3. New events are scheduled strictly into the virtual future.
//
//   ./build/examples/custom_model [--nodes=4] [--gvt=ca-gvt]
#include <cstdio>
#include <exception>

#include "core/simulation.hpp"
#include "models/registry.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

using namespace cagvt;

namespace {

class TorusNetworkModel final : public pdes::Model {
 public:
  TorusNetworkModel(const pdes::LpMap& map, int side, double hop_mean)
      : map_(map), side_(side), hop_mean_(hop_mean) {
    CAGVT_CHECK(side * side == map.total_lps());
  }

  struct SwitchState {
    std::uint64_t packets_forwarded;
    std::uint64_t packets_delivered;
  };

  std::size_t state_size() const override { return sizeof(SwitchState); }

  void init_lp(pdes::LpId lp, std::span<std::byte> state,
               pdes::EventSink& sink) const override {
    state_as<SwitchState>(state) = SwitchState{0, 0};
    // Each switch injects one packet at a random start time, addressed to a
    // random destination (encoded in the payload).
    CounterRng rng(hash_combine(0xC0FFEE, static_cast<std::uint64_t>(lp)), 0);
    const auto dest = rng.next_below(static_cast<std::uint64_t>(map_.total_lps()));
    sink.schedule(lp, 0.001 + rng.next_exponential(hop_mean_), /*payload=*/dest);
  }

  void handle_event(std::span<std::byte> state, const pdes::Event& event,
                    pdes::EventSink& sink) const override {
    auto& sw = state_as<SwitchState>(state);
    const auto dest = static_cast<pdes::LpId>(event.payload);
    if (event.dst_lp == dest) {
      // Delivered: inject a fresh packet to keep the load constant.
      ++sw.packets_delivered;
      CounterRng rng(hash_combine(0xC0FFEE, event.uid), 0);
      const auto next_dest = rng.next_below(static_cast<std::uint64_t>(map_.total_lps()));
      sink.schedule(event.dst_lp, event.recv_ts + rng.next_exponential(hop_mean_), next_dest);
      return;
    }
    // Forward one hop along the torus (x first, then y).
    ++sw.packets_forwarded;
    const int x = event.dst_lp % side_, y = event.dst_lp / side_;
    const int dx = dest % side_, dy = dest / side_;
    int nx = x, ny = y;
    if (x != dx) {
      nx = (dx > x) ? x + 1 : x - 1;
    } else {
      ny = (dy > y) ? y + 1 : y - 1;
    }
    const auto next_hop = static_cast<pdes::LpId>(ny * side_ + nx);
    CounterRng rng(hash_combine(0xC0FFEE, event.uid), 0);
    sink.schedule(next_hop, event.recv_ts + rng.next_exponential(hop_mean_), event.payload);
  }

  double cost_units(const pdes::Event&) const override { return 3000; }  // route lookup

 private:
  const pdes::LpMap& map_;
  int side_;
  double hop_mean_;
};

}  // namespace

int main(int argc, char** argv) try {
  const Options opts = Options::parse(argc, argv);

  core::SimulationConfig cfg;
  cfg.nodes = static_cast<int>(opts.get_int("nodes", 4));
  cfg.threads_per_node = 5;
  cfg.lps_per_worker = 16;  // 4 nodes x 4 workers x 16 LPs = a 16x16 torus
  cfg.end_vt = 50.0;
  core::apply_gvt_spec(cfg, opts.get_string("gvt", "ca-gvt"));
  cfg.validate();  // before make_map, which assumes a valid cluster shape

  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const int side = 16;
  if (map.total_lps() != side * side) {
    std::fprintf(stderr, "this demo needs exactly %d LPs (got %d); keep --nodes=4\n",
                 side * side, map.total_lps());
    return 1;
  }
  const TorusNetworkModel model(map, side, /*hop_mean=*/0.5);

  core::Simulation sim(cfg, model);
  const core::SimulationResult r = sim.run();

  std::printf("16x16 torus network, %d virtual nodes, gvt=%s\n", cfg.nodes,
              std::string(to_string(cfg.gvt)).c_str());
  std::printf("hops simulated   : %llu\n",
              static_cast<unsigned long long>(r.events.committed));
  std::printf("hop rate         : %s hops/s\n", format_si(r.committed_rate).c_str());
  std::printf("efficiency       : %.2f%%\n", r.efficiency * 100);
  std::printf("rollbacks        : %llu\n",
              static_cast<unsigned long long>(r.events.rolled_back));
  return r.completed ? 0 : 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
