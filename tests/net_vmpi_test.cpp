// Network model and virtual MPI: latency/bandwidth accounting, per-pair
// FIFO, egress serialization, collectives, ring circulation.
#include "net/vmpi.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cagvt::net {
namespace {

using metasim::Engine;
using metasim::Process;
using metasim::SimTime;

ClusterSpec test_spec() {
  ClusterSpec spec;
  spec.net_latency = 1000;
  spec.net_bytes_per_ns = 1.0;  // 1 byte/ns for easy arithmetic
  spec.mpi_send_cpu = 50;
  spec.control_send_cpu = 20;
  spec.mpi_collective_cpu = 10;
  return spec;
}

TEST(NetworkTest, DeliveryAfterTransmitPlusLatency) {
  Engine engine;
  const ClusterSpec spec = test_spec();
  Network<int> net(engine, spec, 2);
  std::vector<std::pair<SimTime, int>> delivered;
  net.set_deliver([&](int, int, int v) { delivered.emplace_back(engine.now(), v); });
  engine.call_at(0, [&] { net.transmit(0, 1, /*bytes=*/100, 7, engine.current_owner()); });
  engine.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, 100 + 1000);  // transmit 100B @1B/ns + latency
  EXPECT_EQ(delivered[0].second, 7);
  EXPECT_EQ(net.frames_sent(), 1u);
  EXPECT_EQ(net.bytes_sent(), 100u);
}

TEST(NetworkTest, EgressSerializesBackToBackFrames) {
  Engine engine;
  const ClusterSpec spec = test_spec();
  Network<int> net(engine, spec, 2);
  std::vector<SimTime> arrivals;
  net.set_deliver([&](int, int, int) { arrivals.push_back(engine.now()); });
  engine.call_at(0, [&] {
    net.transmit(0, 1, 100, 1, engine.current_owner());
    net.transmit(0, 1, 100, 2, engine.current_owner());  // queues behind the first on the NIC
  });
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1100);
  EXPECT_EQ(arrivals[1], 1200);  // +100ns of wire occupancy, FIFO preserved
}

TEST(NetworkTest, DistinctSourcesDoNotSerialize) {
  Engine engine;
  const ClusterSpec spec = test_spec();
  Network<int> net(engine, spec, 3);
  std::vector<SimTime> arrivals;
  net.set_deliver([&](int, int, int) { arrivals.push_back(engine.now()); });
  engine.call_at(0, [&] {
    net.transmit(0, 2, 100, 1, engine.current_owner());
    net.transmit(1, 2, 100, 2, engine.current_owner());
  });
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1100);
  EXPECT_EQ(arrivals[1], 1100);  // independent NICs
}

TEST(FabricTest, IsendChargesSenderCpuAndDeliversToInbox) {
  Engine engine;
  const ClusterSpec spec = test_spec();
  Fabric<std::string> fabric(engine, spec, 2);
  SimTime sent_done = -1, received_at = -1;
  std::string got;
  auto sender = [&]() -> Process {
    co_await fabric.isend(0, 1, 100, "hello");
    sent_done = engine.now();
  };
  auto receiver = [&]() -> Process {
    got = co_await fabric.inbox(1).recv();
    received_at = engine.now();
  };
  spawn(engine, sender());
  spawn(engine, receiver());
  engine.run();
  EXPECT_EQ(sent_done, 50);            // mpi_send_cpu
  EXPECT_EQ(received_at, 50 + 1100);   // + transmit + latency
  EXPECT_EQ(got, "hello");
}

TEST(FabricTest, RingSendGoesToNextRankAndWraps) {
  Engine engine;
  const ClusterSpec spec = test_spec();
  Fabric<int> fabric(engine, spec, 3);
  int at_zero = 0, at_one = 0;
  auto from_two = [&]() -> Process { co_await fabric.ring_send(2, 64, 42); };
  auto from_zero = [&]() -> Process { co_await fabric.ring_send(0, 64, 7); };
  auto rx0 = [&]() -> Process { at_zero = co_await fabric.inbox(0).recv(); };
  auto rx1 = [&]() -> Process { at_one = co_await fabric.inbox(1).recv(); };
  spawn(engine, from_two());
  spawn(engine, from_zero());
  spawn(engine, rx0());
  spawn(engine, rx1());
  engine.run();
  EXPECT_EQ(at_zero, 42);  // rank 2 wraps to rank 0
  EXPECT_EQ(at_one, 7);
}

TEST(FabricTest, ControlSendUsesPriorityCost) {
  Engine engine;
  const ClusterSpec spec = test_spec();
  Fabric<int> fabric(engine, spec, 2);
  SimTime done = -1;
  auto sender = [&]() -> Process {
    co_await fabric.isend_control(0, 1, 64, 1);
    done = engine.now();
  };
  spawn(engine, sender());
  engine.run();
  EXPECT_EQ(done, 20);  // control_send_cpu, not mpi_send_cpu
}

TEST(FabricTest, AllreduceSumAcrossRanks) {
  Engine engine;
  const ClusterSpec spec = test_spec();
  Fabric<int> fabric(engine, spec, 4);
  std::vector<std::int64_t> results;
  auto agent = [&](std::int64_t v, SimTime arrive) -> Process {
    co_await metasim::delay(arrive);
    results.push_back(co_await fabric.allreduce_sum(v));
  };
  spawn(engine, agent(1, 0));
  spawn(engine, agent(2, 10));
  spawn(engine, agent(-3, 20));
  spawn(engine, agent(4, 30));
  engine.run();
  ASSERT_EQ(results.size(), 4u);
  for (auto r : results) EXPECT_EQ(r, 4);
}

TEST(FabricTest, AllreduceMinAcrossRanks) {
  Engine engine;
  const ClusterSpec spec = test_spec();
  Fabric<int> fabric(engine, spec, 2);
  std::vector<double> results;
  auto agent = [&](double v) -> Process {
    results.push_back(co_await fabric.allreduce_min(v));
  };
  spawn(engine, agent(5.5));
  spawn(engine, agent(2.25));
  engine.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0], 2.25);
  EXPECT_DOUBLE_EQ(results[1], 2.25);
}

TEST(FabricTest, BarrierReleasesAtLastArrivalPlusCollectiveCost) {
  Engine engine;
  ClusterSpec spec = test_spec();
  Fabric<int> fabric(engine, spec, 4);
  // 4 ranks: ceil(log2(4)) = 2 rounds of (latency + cpu) + cpu.
  const SimTime expected_cost = 2 * (1000 + 10) + 10;
  std::vector<SimTime> released;
  auto agent = [&](SimTime arrive) -> Process {
    co_await metasim::delay(arrive);
    co_await fabric.barrier();
    released.push_back(engine.now());
  };
  spawn(engine, agent(0));
  spawn(engine, agent(100));
  spawn(engine, agent(50));
  spawn(engine, agent(200));
  engine.run();
  ASSERT_EQ(released.size(), 4u);
  for (SimTime t : released) EXPECT_EQ(t, 200 + expected_cost);
  EXPECT_GT(fabric.collective_block_time(), 0);
}

TEST(ClusterSpecTest, CollectiveCostScalesLogarithmically) {
  ClusterSpec spec = test_spec();
  EXPECT_EQ(spec.mpi_collective_cost(1), 10);                 // 0 rounds + cpu
  EXPECT_EQ(spec.mpi_collective_cost(2), 1010 + 10);          // 1 round
  EXPECT_EQ(spec.mpi_collective_cost(8), 3 * 1010 + 10);      // 3 rounds
  EXPECT_EQ(spec.mpi_collective_cost(5), 3 * 1010 + 10);      // ceil(log2(5)) = 3
}

TEST(ClusterSpecTest, TransmitTimeFollowsBandwidth) {
  ClusterSpec spec;
  spec.net_bytes_per_ns = 1.25;  // 10 Gbit/s
  EXPECT_EQ(spec.transmit_time(125), 100);
  EXPECT_EQ(spec.transmit_time(0), 0);
}

TEST(ClusterSpecTest, PthreadBarrierCostGrowsWithParties) {
  ClusterSpec spec;
  EXPECT_GT(spec.pthread_barrier_cost(60), spec.pthread_barrier_cost(2));
}

}  // namespace
}  // namespace cagvt::net
