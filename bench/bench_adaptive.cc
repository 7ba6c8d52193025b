// Experiment E9 (extension) — the paper's proposed self-tuning classifier:
// "a classifier for the development of adaptive data replication coherence
// protocols with self-tuning capability based on run-time information".
//
// A workload that changes phase (shared-read -> single hot writer ->
// write-contended) is run three ways:
//
//   static P        every static protocol over all three phases — the
//                   cost of committing to one protocol up front;
//   oracle-static   per phase, the cheapest static protocol *for that
//                   phase* (continuing each protocol's state across the
//                   run) — the hindsight bound an online controller
//                   chases;
//   online          the telemetry-driven adaptive memory, reclassifying
//                   from live obs::AccessStats at epoch boundaries.
//
// The acceptance bar (ISSUE 10): online acc within 10% of oracle-static.
// All three are deterministic, so their acc figures are gated bit-exact
// by tools/drsm_bench_diff.  A final phase drives the same shape through
// dsm::ConcurrentSharedMemory under adaptive::OnlineController — real
// client threads, live migrations — and reports throughput and the
// adaptive.migrations / adaptive.reclassify_ms telemetry (wall-clock
// figures, not gated).
#include <cstdio>
#include <thread>

#include "adaptive/online.h"
#include "adaptive/selector.h"
#include "bench_util.h"
#include "check/sharded_oracle.h"
#include "dsm/concurrent.h"
#include "workload/generator.h"

namespace {

using namespace drsm;
using protocols::ProtocolKind;

constexpr std::size_t kClients = 4;
constexpr std::size_t kObjects = 4;
constexpr std::size_t kPhaseOps = 20000;
constexpr double kS = 400.0;
constexpr double kP = 30.0;

dsm::SharedMemory::Options memory_options(ProtocolKind kind) {
  dsm::SharedMemory::Options options;
  options.protocol = kind;
  options.num_clients = kClients;
  options.num_objects = kObjects;
  options.costs.s = kS;
  options.costs.p = kP;
  return options;
}

std::vector<workload::WorkloadSpec> phases() {
  return {
      workload::read_disturbance(0.04, 0.3, 3),   // widely shared reads
      workload::ideal_workload(0.8),              // single hot writer
      workload::write_disturbance(0.4, 0.15, 2),  // write contention
  };
}

/// Runs the three phases in sequence; `phase_cost` (sized 3) receives the
/// accumulated cost of each phase as reported by `cost_now`.
template <typename ReadFn, typename WriteFn, typename CostFn>
void drive(ReadFn&& do_read, WriteFn&& do_write, CostFn&& cost_now,
           std::vector<double>& phase_cost) {
  std::uint64_t value = 0;
  std::uint64_t seed = 40;
  std::size_t index = 0;
  for (const auto& phase : phases()) {
    const double before = cost_now();
    workload::GlobalSequenceGenerator gen(phase, ++seed, kObjects);
    for (std::size_t i = 0; i < kPhaseOps; ++i) {
      const auto op = gen.next();
      if (op.op == fsm::OpKind::kWrite)
        do_write(op.node, op.object, ++value);
      else
        do_read(op.node, op.object);
    }
    phase_cost[index++] = cost_now() - before;
  }
}

}  // namespace

int main() {
  const std::size_t total_ops = phases().size() * kPhaseOps;
  std::printf(
      "Adaptive protocol selection on a phase-changing workload\n"
      "(N=%zu clients, M=%zu objects, S=%.0f, P=%.0f; 3 phases x %zu "
      "ops)\n\n",
      kClients, kObjects, kS, kP, kPhaseOps);

  bench::Report report("adaptive");
  std::vector<std::vector<std::string>> rows;

  // -- static protocols, with per-phase cost attribution ---------------------
  report.phase("static");
  double best_static = -1.0;
  const char* best_static_name = "";
  std::vector<double> oracle_phase_cost(phases().size(), -1.0);
  std::vector<std::string> oracle_phase_pick(phases().size());
  for (ProtocolKind kind : protocols::kAllProtocols) {
    dsm::SharedMemory memory(memory_options(kind));
    std::vector<double> phase_cost(phases().size(), 0.0);
    drive([&](NodeId n, ObjectId j) { memory.read(n, j); },
          [&](NodeId n, ObjectId j, std::uint64_t v) {
            memory.write(n, j, v);
          },
          [&] { return memory.total_cost(); }, phase_cost);
    const double acc = memory.average_cost();
    if (best_static < 0.0 || acc < best_static) {
      best_static = acc;
      best_static_name = bench::short_name(kind);
    }
    for (std::size_t p = 0; p < phase_cost.size(); ++p) {
      if (oracle_phase_cost[p] < 0.0 ||
          phase_cost[p] < oracle_phase_cost[p]) {
        oracle_phase_cost[p] = phase_cost[p];
        oracle_phase_pick[p] = bench::short_name(kind);
      }
    }
    auto& row = report.add_result();
    row["configuration"] = std::string("static ") + bench::short_name(kind);
    row["acc"] = acc;
    rows.push_back({std::string("static ") + bench::short_name(kind),
                    strfmt("%.2f", acc), "-"});
  }

  // -- oracle-static: the per-phase hindsight bound --------------------------
  double oracle_cost = 0.0;
  std::string oracle_picks;
  for (std::size_t p = 0; p < oracle_phase_cost.size(); ++p) {
    oracle_cost += oracle_phase_cost[p];
    if (p > 0) oracle_picks += " ";
    oracle_picks += oracle_phase_pick[p];
  }
  const double oracle_acc = oracle_cost / static_cast<double>(total_ops);
  {
    auto& row = report.add_result();
    row["configuration"] = "oracle-static";
    row["acc"] = oracle_acc;
    row["picks"] = oracle_picks;
    rows.push_back(
        {"oracle-static", strfmt("%.2f", oracle_acc), oracle_picks});
  }

  // -- online: telemetry-driven reclassification -----------------------------
  report.phase("online");
  adaptive::AdaptiveSharedMemory::Options options;
  options.memory = memory_options(ProtocolKind::kWriteThrough);
  options.policy.decide_every = 128;
  options.policy.window = 256;
  adaptive::AdaptiveSharedMemory adaptive_memory(options);
  std::vector<double> adaptive_phase_cost(phases().size(), 0.0);
  drive([&](NodeId n, ObjectId j) { adaptive_memory.read(n, j); },
        [&](NodeId n, ObjectId j, std::uint64_t v) {
          adaptive_memory.write(n, j, v);
        },
        [&] { return adaptive_memory.memory().total_cost(); },
        adaptive_phase_cost);
  const double online_acc = adaptive_memory.memory().average_cost();
  const double vs_oracle = online_acc / oracle_acc;
  {
    auto& row = report.add_result();
    row["configuration"] = "online";
    row["acc"] = online_acc;
    row["switches"] = static_cast<double>(adaptive_memory.switches());
    row["reclassify_ms"] = adaptive_memory.reclassify_ms();
    rows.push_back({"online", strfmt("%.2f", online_acc),
                    strfmt("%zu switches", adaptive_memory.switches())});
  }

  std::printf("%s\n",
              render_table({"configuration", "avg cost/op", "notes"}, rows)
                  .c_str());
  std::printf(
      "best static: %.2f (%s); oracle-static: %.2f (%s); online: %.2f "
      "(%.1f%% of oracle)\n\n",
      best_static, best_static_name, oracle_acc, oracle_picks.c_str(),
      online_acc, 100.0 * vs_oracle);
  report.root()["online_within_oracle_10pct"] = vs_oracle <= 1.10;

  // -- concurrent: OnlineController migrating a live sharded DSM ------------
  report.phase("concurrent");
  check::ShardedOracle sharded_oracle(2);
  dsm::ConcurrentSharedMemory::Options copts;
  copts.protocol = ProtocolKind::kWriteThrough;
  copts.num_clients = kClients;
  copts.num_objects = kObjects;
  copts.num_shards = 2;
  copts.costs.s = kS;
  copts.costs.p = kP;
  copts.shard_taps = {sharded_oracle.tap(0), sharded_oracle.tap(1)};
  dsm::ConcurrentSharedMemory concurrent(copts);

  adaptive::OnlineController::Options conopts;
  conopts.policy.decide_every = 1024;
  conopts.policy.window = 2048;
  adaptive::OnlineController controller(concurrent, conopts);
  for (std::size_t c = 0; c < kClients; ++c) {
    const NodeId node = static_cast<NodeId>(c);
    concurrent.session(node).set_grant_handler(
        [&controller, node](const sim::ShardGrant& grant) {
          controller.record(node, grant.object, grant.op);
        });
  }
  controller.start();

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& session = concurrent.session(static_cast<NodeId>(c));
      std::uint64_t seed = 80 + c;
      for (const auto& phase : phases()) {
        // Each thread samples the phase's global sequence and executes
        // the operations belonging to its own node.
        workload::GlobalSequenceGenerator gen(phase, ++seed, kObjects);
        for (std::size_t i = 0; i < 4 * kPhaseOps; ++i) {
          const auto op = gen.next();
          if (op.node != static_cast<NodeId>(c)) continue;
          if (op.op == fsm::OpKind::kWrite)
            session.write_unique(op.object);
          else
            session.read(op.object);
        }
        session.drain();
      }
    });
  }
  for (auto& t : clients) t.join();
  controller.stop();
  concurrent.stop();
  sharded_oracle.finish();

  const auto stats = concurrent.stats();
  auto& live = report.root()["concurrent"];
  live["ops"] = static_cast<double>(stats.ops);
  live["ops_per_sec"] = stats.ops_per_sec();
  live["cost_per_op"] = stats.acc();
  live["migrations"] = static_cast<double>(stats.migrations);
  live["adaptive.records"] = static_cast<double>(controller.records());
  live["adaptive.dropped"] = static_cast<double>(controller.dropped());
  live["adaptive.passes"] = static_cast<double>(controller.passes());
  live["adaptive.migrations"] =
      static_cast<double>(controller.migrations());
  live["adaptive.reclassify_ms"] = controller.reclassify_ms();
  live["oracle_ok"] = sharded_oracle.ok();
  std::printf(
      "concurrent: %llu ops at %.0f ops/s, cost/op %.2f, %llu live "
      "migrations (%llu decision passes, %.2f ms pricing), oracle %s\n",
      static_cast<unsigned long long>(stats.ops), stats.ops_per_sec(),
      stats.acc(),
      static_cast<unsigned long long>(controller.migrations()),
      static_cast<unsigned long long>(controller.passes()),
      controller.reclassify_ms(),
      sharded_oracle.ok() ? "clean" : "VIOLATED");

  report.write();
  return sharded_oracle.ok() && vs_oracle <= 1.10 ? 0 : 1;
}
