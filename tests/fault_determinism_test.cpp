// Determinism of the fault-injection subsystem: identical seeds and
// identical --fault schedules reproduce runs byte-for-byte (committed
// counts, GVT sequences, trace bytes); differing fault seeds yield
// differing perturbation streams; and a configured-but-empty subsystem is
// never instantiated, so fault-free runs are unperturbed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_parse.hpp"
#include "models/phold.hpp"
#include "obs/export.hpp"

namespace cagvt::core {
namespace {

SimulationConfig fault_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 6;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 6;
  cfg.seed = 31;
  cfg.obs.trace = true;
  return cfg;
}

models::PholdParams phold_params() {
  models::PholdParams p;
  p.regional_pct = 0.3;
  p.remote_pct = 0.1;
  p.epg_units = 500;
  return p;
}

TEST(FaultDeterminismTest, IdenticalSchedulesReplayByteIdentically) {
  SimulationConfig cfg = fault_config();
  // All three fault kinds at once, including jitter (the only RNG consumer).
  cfg.faults = fault::parse_fault_schedule(
      "straggler:node=1,t=100us..2ms,slow=3x,profile=square,period=400us;"
      "link:latency=2x,bw=0.5,jitter=1us;"
      "mpistall:node=0,t=200us..,stall=100us,period=1ms");
  const pdes::LpMap map = Simulation::make_map(cfg);
  const models::PholdModel model(map, phold_params());

  Simulation sim(cfg, model);
  const SimulationResult a = sim.run(120.0);
  const SimulationResult b = sim.run(120.0);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);

  EXPECT_EQ(a.events.committed, b.events.committed);
  EXPECT_EQ(a.events.processed, b.events.processed);
  EXPECT_EQ(a.committed_fingerprint, b.committed_fingerprint);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.gvt_trace, b.gvt_trace);
  EXPECT_EQ(a.fault_activations, b.fault_activations);
  EXPECT_EQ(a.fault_jitter_draws, b.fault_jitter_draws);
  EXPECT_GT(a.fault_activations, 0u);
  EXPECT_GT(a.fault_jitter_draws, 0u);

  // Byte-identical trace streams — the strongest replay guarantee.
  ASSERT_TRUE(a.trace != nullptr);
  ASSERT_TRUE(b.trace != nullptr);
  EXPECT_EQ(obs::to_trace_csv(*a.trace), obs::to_trace_csv(*b.trace));
}

TEST(FaultDeterminismTest, FaultWindowsAppearInTrace) {
  SimulationConfig cfg = fault_config();
  cfg.faults = fault::parse_fault_schedule("straggler:node=1,t=100us..1ms,slow=4x");
  const pdes::LpMap map = Simulation::make_map(cfg);
  const models::PholdModel model(map, phold_params());

  Simulation sim(cfg, model);
  const SimulationResult r = sim.run(120.0);
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(r.trace != nullptr);

  const std::string csv = obs::to_trace_csv(*r.trace);
  EXPECT_NE(csv.find("fault_on"), std::string::npos);
  EXPECT_NE(csv.find("fault_off"), std::string::npos);
  EXPECT_NE(csv.find("straggler"), std::string::npos);
  EXPECT_EQ(r.fault_activations, 1u);
}

TEST(FaultDeterminismTest, DifferentFaultSeedsDivergeJitterStreams) {
  SimulationConfig cfg = fault_config();
  // Whole-run link jitter: every frame draws from the perturbation RNG, so
  // a different fault seed must shift arrival times (and with them the
  // run's timing), while the committed event set stays workload-defined.
  cfg.faults = fault::parse_fault_schedule("link:latency=2x,jitter=4us");
  const pdes::LpMap map = Simulation::make_map(cfg);
  const models::PholdModel model(map, phold_params());

  cfg.fault_seed = 1001;
  Simulation sim_a(cfg, model);
  const SimulationResult a = sim_a.run(120.0);

  cfg.fault_seed = 2002;
  Simulation sim_b(cfg, model);
  const SimulationResult b = sim_b.run(120.0);

  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  ASSERT_GT(a.fault_jitter_draws, 0u);
  // Different perturbation stream, observable in the run's timing...
  EXPECT_NE(a.wall_seconds, b.wall_seconds);
  EXPECT_NE(obs::to_trace_csv(*a.trace), obs::to_trace_csv(*b.trace));
  // ...but the committed event set is a property of the workload, not of
  // the perturbation (Time Warp correctness under jitter).
  EXPECT_EQ(a.committed_fingerprint, b.committed_fingerprint);
}

TEST(FaultDeterminismTest, NoScheduleMeansNoPerturbation) {
  // A run without faults must be bit-identical whatever fault_seed says —
  // the subsystem is not even instantiated.
  SimulationConfig cfg = fault_config();
  const pdes::LpMap map = Simulation::make_map(cfg);
  const models::PholdModel model(map, phold_params());

  cfg.fault_seed = 1;
  Simulation sim_a(cfg, model);
  const SimulationResult a = sim_a.run(120.0);

  cfg.fault_seed = 999;
  Simulation sim_b(cfg, model);
  const SimulationResult b = sim_b.run(120.0);

  EXPECT_EQ(a.fault_activations, 0u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.committed_fingerprint, b.committed_fingerprint);
  EXPECT_EQ(obs::to_trace_csv(*a.trace), obs::to_trace_csv(*b.trace));
}

TEST(FaultDeterminismTest, RecoveryRunsReplayByteIdentically) {
  // The strongest recovery guarantee: a run that loses frames, retransmits,
  // crashes a node, and rewinds to a checkpoint still replays byte-for-byte
  // — retransmit timing (counter-RNG jitter), checkpoint rounds, and the
  // coordinated restore are all deterministic.
  SimulationConfig cfg = fault_config();
  cfg.ckpt_every = 3;
  cfg.faults = fault::parse_fault_schedule(
      "loss:src=all,dst=all,rate=0.2;crash:node=1,t=500us,down=300us");
  const pdes::LpMap map = Simulation::make_map(cfg);
  const models::PholdModel model(map, phold_params());

  Simulation sim(cfg, model);
  const SimulationResult a = sim.run(120.0);
  const SimulationResult b = sim.run(120.0);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);

  // The interesting paths actually ran.
  EXPECT_GT(a.frames_dropped, 0u);
  EXPECT_GT(a.retransmits, 0u);
  EXPECT_GE(a.checkpoints, 1u);
  EXPECT_GE(a.restores, 1u);

  EXPECT_EQ(a.events.committed, b.events.committed);
  EXPECT_EQ(a.committed_fingerprint, b.committed_fingerprint);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.gvt_trace, b.gvt_trace);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.acks_sent, b.acks_sent);
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_DOUBLE_EQ(a.recovery_seconds, b.recovery_seconds);

  // Byte-identical traces INCLUDING the retransmit / ckpt_write / crash /
  // restore records the recovery machinery emits.
  ASSERT_TRUE(a.trace != nullptr);
  const std::string csv = obs::to_trace_csv(*a.trace);
  EXPECT_NE(csv.find("retransmit"), std::string::npos);
  EXPECT_NE(csv.find("ckpt_write"), std::string::npos);
  EXPECT_NE(csv.find("crash"), std::string::npos);
  EXPECT_NE(csv.find("restore"), std::string::npos);
  EXPECT_EQ(csv, obs::to_trace_csv(*b.trace));
}

TEST(FaultDeterminismTest, ApplyFaultOptionsParsesFlags) {
  SimulationConfig cfg = fault_config();
  const char* argv[] = {"prog", "--fault=straggler:node=1,slow=2x", "--fault-seed=42"};
  const Options cli = Options::parse(3, argv);
  apply_fault_options(cfg, cli);
  ASSERT_EQ(cfg.faults.size(), 1u);
  EXPECT_EQ(cfg.faults[0].node, 1);
  EXPECT_DOUBLE_EQ(cfg.faults[0].slow, 2.0);
  EXPECT_EQ(cfg.fault_seed, 42u);
  // cfg.validate() accepts the parsed schedule against the cluster shape.
  cfg.validate();

  // Out-of-range targets are rejected at validate time — with a message
  // naming the offending spec and the valid node range, not a silent no-op
  // fault that never fires.
  SimulationConfig bad = fault_config();
  bad.faults = fault::parse_fault_schedule("straggler:node=99,slow=2x");
  try {
    bad.validate();
    FAIL() << "out-of-range fault node must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("node=99"), std::string::npos) << msg;
    EXPECT_NE(msg.find("outside the cluster"), std::string::npos) << msg;
    EXPECT_NE(msg.find("straggler"), std::string::npos) << msg;
  }

  // Same for crash targets and loss endpoints.
  bad.faults = fault::parse_fault_schedule("crash:node=5,t=1ms,down=1ms");
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.faults = fault::parse_fault_schedule("loss:src=0,dst=9,rate=0.5");
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FaultEngineTest, CostsPricedAheadMatchCostsPricedOnTheClock) {
  // A folded lock hold prices each step at the instant it stands for,
  // before the clock gets there (metasim::Mutex::lock_then). Across a ramp,
  // a square wave and their overlap, scale_cpu_at(node, c, t) must equal
  // scale_cpu(node, c) charged at t, whenever it is asked.
  fault::FaultEngine faults(
      fault::parse_fault_schedule("straggler:node=0,t=0..3ms,slow=6x,profile=ramp;"
                                  "straggler:node=all,t=1ms..2ms,slow=3x,profile=square,"
                                  "period=10us"),
      /*seed=*/7, /*nodes=*/2);
  metasim::Engine engine;
  faults.arm(engine, nullptr, nullptr);
  const std::vector<metasim::SimTime> costs = {1, 150, 3800, 4200, 99'999};
  int checked = 0;
  for (metasim::SimTime t = 0; t <= 3'500'000; t += 2'917) {
    std::vector<metasim::SimTime> priced;
    for (int node = 0; node < 2; ++node)
      for (const metasim::SimTime c : costs) priced.push_back(faults.scale_cpu_at(node, c, t));
    engine.call_at(t, [&, t, priced] {
      std::size_t i = 0;
      for (int node = 0; node < 2; ++node) {
        for (const metasim::SimTime c : costs) {
          EXPECT_EQ(faults.scale_cpu_at(node, c, engine.now()), faults.scale_cpu(node, c)) << t;
          EXPECT_EQ(priced[i++], faults.scale_cpu(node, c)) << t;
        }
      }
      ++checked;
    });
  }
  engine.run();
  EXPECT_EQ(checked, 1200);
  // The ramp does move the price.
  EXPECT_LT(faults.scale_cpu_at(0, 1000, 0), faults.scale_cpu_at(0, 1000, 2'999'000));
}

}  // namespace
}  // namespace cagvt::core
