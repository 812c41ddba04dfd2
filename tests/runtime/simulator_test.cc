#include "runtime/simulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace fuseme {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 2;
  config.tasks_per_node = 4;
  config.net_bandwidth = 1000.0;       // 1000 B/s
  config.compute_bandwidth = 8000.0;   // per node -> 2000 flops/s per task
  config.task_launch_overhead = 0.0;
  config.shuffle_cpu_factor = 0.0;
  config.timeout_seconds = 1e9;
  return config;
}

StageStats MakeStage(int tasks, std::int64_t bytes, std::int64_t flops) {
  StageStats s;
  s.label = "s";
  s.num_tasks = tasks;
  s.consolidation_bytes = bytes;
  s.flops = flops;
  return s;
}

TEST(SimulatorTest, NetworkBoundStage) {
  Simulator sim(TestCluster());
  // 8 tasks on 2 nodes: 2000 B/s aggregate network.  4000 bytes -> 2s.
  // Compute: 8000 flops over 8 slots*2000 flops/s = 0.5s. Net dominates.
  double t = sim.EstimateStageSeconds(MakeStage(8, 4000, 8000));
  EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(SimulatorTest, ComputeBoundStage) {
  Simulator sim(TestCluster());
  // 160000 flops over 8 slots * 2000 = 10s; network 4000B/2000Bps = 2s.
  double t = sim.EstimateStageSeconds(MakeStage(8, 4000, 160000));
  EXPECT_DOUBLE_EQ(t, 10.0);
}

TEST(SimulatorTest, LimitedParallelismUsesFewerSlots) {
  Simulator sim(TestCluster());
  // 2 tasks fit on one node: network bandwidth of 1 node, 2 slots compute.
  double t = sim.EstimateStageSeconds(MakeStage(2, 1000, 8000));
  // net: 1000/1000 = 1s; comp: 8000/(2*2000) = 2s.
  EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(SimulatorTest, MoreTasksThanSlotsCostsOneBusyWindowPerWave) {
  ClusterConfig config = TestCluster();
  config.task_launch_overhead = 0.1;
  Simulator sim(config);
  // 20 tasks over 8 slots: waves of 8, 8, 4.  Each task computes
  // 16000/20 = 800 flops -> 0.4s per wave regardless of wave width.
  double t = sim.EstimateStageSeconds(MakeStage(20, 0, 16000));
  // 3 * 0.4s busy + 3 * 0.1 overhead.
  EXPECT_NEAR(t, 1.5, 1e-9);
}

TEST(SimulatorTest, MultiWaveNetworkStageScalesWithWaves) {
  Simulator sim(TestCluster());
  // 16 tasks, 2 full waves of 8, 4000 bytes each wave at 2000 B/s
  // aggregate: 2s per wave.
  double t = sim.EstimateStageSeconds(MakeStage(16, 8000, 0));
  EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(SimulatorTest, TailWaveUsesItsOwnNodeCount) {
  Simulator sim(TestCluster());
  // 10 tasks: one full wave of 8 (2 nodes) + a tail of 2 (1 node).
  // 1000 bytes/task.  Full wave: 8000/(2*1000) = 4s; tail: 2000/1000 = 2s.
  double t = sim.EstimateStageSeconds(MakeStage(10, 10000, 0));
  EXPECT_DOUBLE_EQ(t, 6.0);
}

TEST(SimulatorTest, ShuffleCpuFactorStretchesNetwork) {
  ClusterConfig config = TestCluster();
  config.shuffle_cpu_factor = 1.0;
  Simulator sim(config);
  double t = sim.EstimateStageSeconds(MakeStage(8, 4000, 8000));
  EXPECT_DOUBLE_EQ(t, 4.0);  // 2s network doubled
}

TEST(SimulatorTest, ClockAccumulatesAcrossStages) {
  Simulator sim(TestCluster());
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 4000, 0)).ok());
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 2000, 0)).ok());
  EXPECT_DOUBLE_EQ(sim.elapsed_seconds(), 3.0);
  EXPECT_EQ(sim.stages().size(), 2u);
  EXPECT_EQ(sim.total_bytes(), 6000);
}

TEST(SimulatorTest, TimeoutTrips) {
  ClusterConfig config = TestCluster();
  config.timeout_seconds = 2.5;
  Simulator sim(config);
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 4000, 0)).ok());  // 2s
  Status st = sim.CompleteStage(MakeStage(8, 4000, 0));        // 4s total
  EXPECT_TRUE(st.IsTimedOut());
}

TEST(SimulatorTest, EmptyStageIsFree) {
  Simulator sim(TestCluster());
  EXPECT_DOUBLE_EQ(sim.EstimateStageSeconds(MakeStage(0, 0, 0)), 0.0);
}

TEST(SimulatorTest, ResetClearsHistory) {
  Simulator sim(TestCluster());
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 4000, 0)).ok());
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.elapsed_seconds(), 0.0);
  EXPECT_TRUE(sim.stages().empty());
}

TEST(SimulatorTest, DefaultOverlapFactorKeepsMaxModel) {
  // overlap_factor defaults to 1: a wave costs max(net, comp) exactly, so
  // existing predictions (and analytic-mode elapsed_seconds) are
  // bitwise-unchanged by the overlap extension.
  ClusterConfig config = TestCluster();
  ASSERT_DOUBLE_EQ(config.overlap_factor, 1.0);
  Simulator sim(config);
  // net: 4000/2000 = 2s; comp: 8000/(8*2000) = 0.5s.
  EXPECT_DOUBLE_EQ(sim.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.0);
}

TEST(SimulatorTest, ZeroOverlapFactorSerializesTransferAndCompute) {
  ClusterConfig config = TestCluster();
  config.overlap_factor = 0.0;
  Simulator sim(config);
  // No overlap: the wave pays net + comp = 2.0 + 0.5.
  EXPECT_DOUBLE_EQ(sim.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.5);
}

TEST(SimulatorTest, PartialOverlapHidesFractionOfShorterPhase) {
  ClusterConfig config = TestCluster();
  config.overlap_factor = 0.6;
  Simulator sim(config);
  // max(2.0, 0.5) + (1 - 0.6) * min(2.0, 0.5) = 2.0 + 0.2.
  EXPECT_NEAR(sim.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.2, 1e-12);
}

TEST(SimulatorTest, OverlapFactorOutsideRangeIsClamped) {
  ClusterConfig config = TestCluster();
  config.overlap_factor = 7.0;  // validation rejects this; simulator clamps
  Simulator sim(config);
  EXPECT_DOUBLE_EQ(sim.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.0);
  config.overlap_factor = -3.0;
  Simulator sim2(config);
  EXPECT_DOUBLE_EQ(sim2.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.5);
}

TEST(SimulatorTest, RecoveryAddsBackoffAndRelaunches) {
  ClusterConfig config = TestCluster();
  config.task_launch_overhead = 0.1;
  Simulator sim(config);
  StageRecovery recovery;
  recovery.retries = 2;
  recovery.degradations = 1;
  recovery.backoff_seconds = 0.5;
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 4000, 0), &recovery).ok());
  // 2s network + 0.1 launch, then 0.5 backoff + 3 re-launches * 0.1.
  EXPECT_NEAR(sim.stages().back().elapsed_seconds, 2.1 + 0.5 + 0.3, 1e-12);
  EXPECT_EQ(recovery.speculative_tasks, 0);
}

TEST(SimulatorTest, SpeculationCutsTheStragglerTail) {
  ClusterConfig config = TestCluster();
  config.task_launch_overhead = 0.1;
  // One 2s wave (+0.1 launch).  A 10x straggler rides out 9 more waves
  // (18s); a copy launched 1.5 waves in costs 1.5 * 2s + 0.1 = 3.1s.
  StageRecovery straggling;
  straggling.stragglers = 3;
  straggling.max_straggler_factor = 10.0;
  straggling.speculative_tasks = 99;  // overwritten by CompleteStage

  Simulator speculating(config);
  StageRecovery speculated = straggling;
  ASSERT_TRUE(speculating
                  .CompleteStage(MakeStage(8, 4000, 0), &speculated,
                                 /*speculation=*/true,
                                 /*speculation_launch_factor=*/1.5)
                  .ok());
  EXPECT_NEAR(speculating.elapsed_seconds(), 2.1 + 3.1, 1e-12);
  EXPECT_EQ(speculated.speculative_tasks, 3);

  Simulator riding_out(config);
  StageRecovery rode_out = straggling;
  ASSERT_TRUE(riding_out
                  .CompleteStage(MakeStage(8, 4000, 0), &rode_out,
                                 /*speculation=*/false,
                                 /*speculation_launch_factor=*/1.5)
                  .ok());
  EXPECT_NEAR(riding_out.elapsed_seconds(), 2.1 + 18.0, 1e-12);
  EXPECT_EQ(rode_out.speculative_tasks, 0);

  // A mild straggler finishes before its copy would: no copy launches.
  Simulator mild(config);
  StageRecovery slight = straggling;
  slight.max_straggler_factor = 2.0;
  ASSERT_TRUE(mild.CompleteStage(MakeStage(8, 4000, 0), &slight, true, 1.5)
                  .ok());
  EXPECT_NEAR(mild.elapsed_seconds(), 2.1 + 2.0, 1e-12);
  EXPECT_EQ(slight.speculative_tasks, 0);
}

TEST(SimulatorTest, AllZeroRecoveryIsBitwiseFree) {
  ClusterConfig config = TestCluster();
  config.task_launch_overhead = 0.013;
  config.shuffle_cpu_factor = 0.37;
  const StageStats stage = MakeStage(21, 12345, 67891);
  Simulator without(config);
  ASSERT_TRUE(without.CompleteStage(stage).ok());
  Simulator with(config);
  StageRecovery recovery;
  ASSERT_TRUE(with.CompleteStage(stage, &recovery).ok());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(with.elapsed_seconds()),
            std::bit_cast<std::uint64_t>(without.elapsed_seconds()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(with.stages().back().elapsed_seconds),
            std::bit_cast<std::uint64_t>(
                without.stages().back().elapsed_seconds));
  EXPECT_EQ(recovery.speculative_tasks, 0);
}

TEST(SimulatorTest, MoreNodesIsFasterForNetworkBoundStage) {
  // Reproduces the shape of Fig. 12(d,h): elapsed decreases with nodes.
  double prev = 1e18;
  for (int nodes : {2, 4, 8}) {
    ClusterConfig config = TestCluster();
    config.num_nodes = nodes;
    Simulator sim(config);
    double t = sim.EstimateStageSeconds(
        MakeStage(/*tasks=*/nodes * 4, 80000, 160000));
    EXPECT_LT(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace fuseme
