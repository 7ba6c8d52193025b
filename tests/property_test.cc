// Cross-cutting property tests:
//  * determinism — identical seeds produce identical results in both
//    runtimes and all generators;
//  * symmetry — relabeling exchangeable clients never changes acc (the
//    property the lumped chains rely on);
//  * accounting — reported operation costs equal the sum of the observed
//    messages' costs, in both runtimes;
//  * snapshot independence — copying a SequentialRuntime yields two fully
//    independent systems.
#include <gtest/gtest.h>

#include <iterator>

#include "analytic/solver.h"
#include "sim/event_sim.h"
#include "sim/sequential.h"
#include "support/rng.h"
#include "workload/generator.h"

namespace drsm {
namespace {

using fsm::OpKind;
using protocols::ProtocolKind;

sim::SystemConfig make_config(std::size_t n) {
  sim::SystemConfig config;
  config.num_clients = n;
  config.costs.s = 150.0;
  config.costs.p = 30.0;
  return config;
}

// ---------------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------------

TEST(Property, EventSimulatorIsDeterministicPerSeed) {
  const auto spec = workload::write_disturbance(0.3, 0.1, 2);
  const auto run = [&](std::uint64_t seed) {
    sim::SimOptions options;
    options.max_ops = 5000;
    options.warmup_ops = 200;
    options.seed = seed;
    options.latency.min_latency = 1;
    options.latency.max_latency = 5;
    sim::EventSimulator simulator(ProtocolKind::kBerkeley, make_config(4),
                                  options);
    workload::ConcurrentDriver driver(spec, seed * 31);
    return simulator.run(driver);
  };
  const sim::SimStats a = run(7);
  const sim::SimStats b = run(7);
  EXPECT_EQ(a.measured_cost, b.measured_cost);
  EXPECT_EQ(a.measured_ops, b.measured_ops);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.end_time, b.end_time);
  const sim::SimStats c = run(8);
  EXPECT_NE(a.measured_cost, c.measured_cost);  // different seed differs
}

TEST(Property, GeneratorsAreDeterministicPerSeed) {
  const auto spec = workload::read_disturbance(0.3, 0.1, 3);
  workload::GlobalSequenceGenerator g1(spec, 5, 4), g2(spec, 5, 4);
  for (int i = 0; i < 1000; ++i) {
    const auto a = g1.next();
    const auto b = g2.next();
    ASSERT_EQ(a.node, b.node);
    ASSERT_EQ(a.object, b.object);
    ASSERT_EQ(a.op, b.op);
  }
}

// ---------------------------------------------------------------------------
// Symmetry: which client indices host the disturbers must not matter.
// ---------------------------------------------------------------------------

TEST(Property, AccInvariantUnderClientRelabeling) {
  const sim::SystemConfig config = make_config(8);
  analytic::AccSolver solver(config);
  for (ProtocolKind kind : protocols::kAllProtocols) {
    // Canonical roster: center 0, disturbers {1, 2}.
    const double canonical =
        solver.acc(kind, workload::read_disturbance(0.3, 0.1, 2));
    // Relabeled roster: center 5, disturbers {2, 7}.
    workload::WorkloadSpec relabeled;
    relabeled.name = "relabeled";
    relabeled.events = {{5, OpKind::kWrite, 0.3},
                        {5, OpKind::kRead, 0.5},
                        {2, OpKind::kRead, 0.1},
                        {7, OpKind::kRead, 0.1}};
    EXPECT_NEAR(solver.acc(kind, relabeled), canonical, 1e-9)
        << protocols::to_string(kind);
  }
}

TEST(Property, AccInvariantUnderEventOrderPermutation) {
  const sim::SystemConfig config = make_config(6);
  analytic::AccSolver solver(config);
  workload::WorkloadSpec forward = workload::write_disturbance(0.2, 0.1, 2);
  workload::WorkloadSpec reversed = forward;
  std::reverse(reversed.events.begin(), reversed.events.end());
  for (ProtocolKind kind : protocols::kAllProtocols) {
    EXPECT_NEAR(solver.acc(kind, forward), solver.acc(kind, reversed), 1e-9)
        << protocols::to_string(kind);
  }
}

// ---------------------------------------------------------------------------
// Accounting: reported per-operation cost == sum of observed messages.
// ---------------------------------------------------------------------------

TEST(Property, SequentialCostsMatchObservedMessages) {
  for (ProtocolKind kind : protocols::kAllProtocols) {
    sim::SequentialRuntime runtime(kind, make_config(4), {0, 1, 2});
    double observed = 0.0;
    std::size_t observed_messages = 0;
    runtime.set_observer(
        [&](NodeId, NodeId, const fsm::Message& msg) {
          observed += runtime.config().costs.message_cost(msg.token.params);
          ++observed_messages;
        });
    Rng rng(11 + static_cast<std::uint64_t>(kind));
    std::uint64_t value = 0;
    const NodeId nodes[] = {0, 1, 2, /*home=*/4};
    for (int i = 0; i < 1000; ++i) {
      const NodeId node = nodes[rng.uniform_index(4)];
      observed = 0.0;
      observed_messages = 0;
      const sim::OpResult result =
          rng.bernoulli(0.4)
              ? runtime.execute(node, OpKind::kWrite, ++value)
              : runtime.execute(node, OpKind::kRead);
      ASSERT_DOUBLE_EQ(result.cost, observed)
          << protocols::to_string(kind) << " step " << i;
      ASSERT_EQ(result.messages, observed_messages);
    }
  }
}

TEST(Property, EventSimCostsMatchObservedMessages) {
  const auto spec = workload::read_disturbance(0.4, 0.15, 2);
  sim::SimOptions options;
  options.max_ops = 3000;
  options.warmup_ops = 0;
  options.seed = 13;
  sim::EventSimulator simulator(ProtocolKind::kIllinois, make_config(4),
                                options);
  double observed = 0.0;
  std::size_t observed_messages = 0;
  simulator.set_observer([&](SimTime, NodeId, NodeId,
                             const fsm::Message& msg) {
    observed += make_config(4).costs.message_cost(msg.token.params);
    ++observed_messages;
  });
  workload::ConcurrentDriver driver(spec, 14);
  const sim::SimStats stats = simulator.run(driver);
  EXPECT_DOUBLE_EQ(stats.measured_cost + stats.warmup_cost, observed);
  EXPECT_EQ(stats.messages, observed_messages);
}

// ---------------------------------------------------------------------------
// Snapshot independence.
// ---------------------------------------------------------------------------

TEST(Property, CopiedRuntimesEvolveIndependently) {
  sim::SequentialRuntime original(ProtocolKind::kWriteOnce, make_config(4),
                                  {0, 1});
  original.execute(0, OpKind::kWrite, 41);
  sim::SequentialRuntime snapshot = original;
  ASSERT_EQ(snapshot.encode_state(), original.encode_state());

  // Divergence after the copy must not leak across.
  original.execute(1, OpKind::kWrite, 42);
  EXPECT_NE(snapshot.encode_state(), original.encode_state());
  EXPECT_EQ(snapshot.execute(1, OpKind::kRead).read_value, 41u);
  EXPECT_EQ(original.execute(0, OpKind::kRead).read_value, 42u);
}

TEST(Property, EncodeStateIsStableAcrossClones) {
  for (ProtocolKind kind : protocols::kAllProtocols) {
    sim::SequentialRuntime runtime(kind, make_config(5), {0, 1, 2});
    Rng rng(17);
    std::uint64_t value = 0;
    for (int i = 0; i < 200; ++i) {
      const NodeId node = static_cast<NodeId>(rng.uniform_index(3));
      runtime.execute(node,
                      rng.bernoulli(0.5) ? OpKind::kWrite : OpKind::kRead,
                      ++value);
      const sim::SequentialRuntime clone = runtime;
      ASSERT_EQ(clone.encode_state(), runtime.encode_state())
          << protocols::to_string(kind) << " step " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Chain structure sanity: documented state-space sizes.
// ---------------------------------------------------------------------------

TEST(Property, ChainStateSpaceSizes) {
  // Exact Markov-state counts of every protocol under the three
  // homogeneous deviations (N=12, a=beta=3).  A quiescent key that gains
  // a transient field or loses a control field moves a count here even
  // where acc would not move.  Write-Through: center {V, I} x disturbers
  // {V, I}^3 = 16 under read disturbance; Dragon and Firefly: a single
  // always-valid global state; Berkeley: ownership location matters.
  struct Sizes {
    ProtocolKind kind;
    std::size_t read, write, multi;
  };
  constexpr Sizes kSizes[] = {
      {ProtocolKind::kWriteThrough, 16, 2, 8},
      {ProtocolKind::kWriteThroughV, 16, 8, 8},
      {ProtocolKind::kWriteOnce, 18, 13, 14},
      {ProtocolKind::kSynapse, 17, 6, 11},
      {ProtocolKind::kIllinois, 17, 9, 11},
      {ProtocolKind::kBerkeley, 24, 9, 20},
      {ProtocolKind::kDragon, 1, 1, 1},
      {ProtocolKind::kFirefly, 1, 1, 1},
  };
  static_assert(std::size(kSizes) == std::size(protocols::kAllProtocols));
  const sim::SystemConfig config = make_config(12);
  const auto read = workload::read_disturbance(0.3, 0.05, 3);
  const auto write = workload::write_disturbance(0.3, 0.05, 3);
  const auto multi = workload::multiple_activity_centers(0.3, 3);
  for (const Sizes& want : kSizes) {
    const char* name = protocols::to_string(want.kind);
    EXPECT_EQ(analytic::ProtocolChain(want.kind, config, read).num_states(),
              want.read)
        << name << " read disturbance";
    EXPECT_EQ(analytic::ProtocolChain(want.kind, config, write).num_states(),
              want.write)
        << name << " write disturbance";
    EXPECT_EQ(analytic::ProtocolChain(want.kind, config, multi).num_states(),
              want.multi)
        << name << " multiple activity centers";
  }
}

}  // namespace
}  // namespace drsm
