// sim_validate: the paper's Table-7 experiment for all eight protocols.
// Every cell of the Table-7 grid (N=3, a=2, S=100, P=30, M=20 objects,
// p and sigma in {0, 0.2, ..., 1} with p + 2 sigma <= 1) runs 8
// replications of 500 warm-up + 1500 measured operations through
// sim::run_replications on a 2-thread sweep pool, and is compared with
// the analytic acc of the same cell (AccSolver::acc_batch).  The seed
// derives every replication seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "analytic/solver.h"
#include "exec/sweep.h"
#include "obs/metrics.h"
#include "sim/replication.h"
#include "stats/summary.h"
#include "workload/generator.h"
#include "workload/spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace drsm;
using protocols::ProtocolKind;

constexpr std::size_t kN = 3;
constexpr std::size_t kA = 2;
constexpr double kS = 100.0;
constexpr double kP = 30.0;
constexpr std::size_t kM = 20;
constexpr std::size_t kReplications = 8;
constexpr std::size_t kWarmupOps = 500;
constexpr std::size_t kMeasuredOps = 1500;
constexpr std::size_t kPoolThreads = 2;
constexpr double kGapLimitPct = 8.0;

sim::SystemConfig sim_config() {
  sim::SystemConfig config;
  config.num_clients = kN;
  config.costs.s = kS;
  config.costs.p = kP;
  config.num_objects = kM;
  return config;
}

struct Cell {
  ProtocolKind kind = ProtocolKind::kWriteThrough;
  double p = 0.0;
  double sigma = 0.0;
  workload::WorkloadSpec spec;
  std::uint64_t seed = 0;
};

std::vector<Cell> make_cells(Scale scale, std::uint64_t seed) {
  std::vector<ProtocolKind> kinds(protocols::kAllProtocols.begin(),
                                  protocols::kAllProtocols.end());
  std::vector<double> ps = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  if (scale != Scale::kFull) ps = {0.2};
  if (scale == Scale::kTiny)
    kinds = {ProtocolKind::kWriteThrough, ProtocolKind::kWriteOnce};
  std::vector<Cell> cells;
  for (const ProtocolKind kind : kinds)
    for (const double p : ps)
      for (const double sigma : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0})
        if (p + static_cast<double>(kA) * sigma <= 1.0 + 1e-12)
          cells.push_back({kind, p, sigma,
                           workload::read_disturbance(p, sigma, kA),
                           exec::task_seed(seed, cells.size())});
  return cells;
}

sim::ReplicatedStats replicate(const Cell& cell, exec::SweepRunner& runner,
                               obs::MetricsRegistry* metrics) {
  sim::SimOptions options;
  options.warmup_ops = kWarmupOps;
  options.max_ops = kWarmupOps + kMeasuredOps;
  sim::ReplicationOptions reps;
  reps.replications = kReplications;
  reps.base_seed = cell.seed;
  reps.runner = &runner;
  reps.metrics = metrics;
  return sim::run_replications(
      cell.kind, sim_config(), options,
      [&cell](std::uint64_t seed, std::size_t) {
        return std::make_unique<workload::ConcurrentDriver>(
            cell.spec, seed ^ 0xBEEF, kM);
      },
      reps);
}

struct PassResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double analytic_s = 0.0;
  double sim_ops = 0.0;
  std::vector<double> cell_us;
  std::vector<double> analytic_acc;  // by cell
  std::vector<double> sim_acc;       // replication mean, by cell
  std::vector<double> sim_cost;      // merged measured cost, by cell
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
};

PassResult run_pass(const std::vector<Cell>& cells, Tracer* tracer) {
  PassResult r;
  const std::uint64_t setup_start = now_ns();
  exec::SweepRunner runner({.threads = kPoolThreads});
  {
    // Warm-up: one replicated cell, fixed seed, result discarded.
    Cell warm{ProtocolKind::kWriteThrough, 0.2, 0.2,
              workload::read_disturbance(0.2, 0.2, kA), 1};
    replicate(warm, runner, nullptr);
  }
  obs::MetricsRegistry metrics;
  Tracer::Log* log = tracer != nullptr ? &tracer->new_log() : nullptr;
  const std::uint64_t pass_id = log != nullptr ? log->new_id() : 0;
  const std::uint64_t start = now_ns();
  r.setup_s = seconds_between(setup_start, start);

  // Analytic reference, one batched solve per protocol.
  analytic::AccSolver solver({kN, {kS, kP}, 1});
  r.analytic_acc.assign(cells.size(), 0.0);
  for (std::size_t i = 0; i < cells.size();) {
    std::size_t j = i;
    std::vector<workload::WorkloadSpec> specs;
    while (j < cells.size() && cells[j].kind == cells[i].kind)
      specs.push_back(cells[j++].spec);
    const std::uint64_t t0 = now_ns();
    const std::vector<double> acc = solver.acc_batch(cells[i].kind, specs);
    const std::uint64_t t1 = now_ns();
    r.analytic_s += seconds_between(t0, t1);
    if (log != nullptr)
      log->record("analytic.acc_batch", log->new_id(), pass_id, t0, t1);
    for (std::size_t k = 0; k < acc.size(); ++k) r.analytic_acc[i + k] = acc[k];
    i = j;
  }

  for (const Cell& cell : cells) {
    const std::uint64_t t0 = now_ns();
    const sim::ReplicatedStats stats =
        replicate(cell, runner, log != nullptr ? &metrics : nullptr);
    const std::uint64_t t1 = now_ns();
    r.cell_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (log != nullptr)
      log->record("sim.replications", log->new_id(), pass_id, t0, t1);
    r.sim_acc.push_back(stats.acc.mean);
    r.sim_cost.push_back(stats.merged.measured_cost);
    r.sim_ops += static_cast<double>(stats.merged.measured_ops +
                                     stats.merged.warmup_ops);
    r.messages += stats.merged.messages;
  }
  const std::uint64_t end = now_ns();
  r.run_s = seconds_between(start, end);
  if (log != nullptr) {
    log->record("sim.pass", pass_id, 0, start, end);
    if (const auto* c = metrics.find_counter("sim.events"))
      r.events = c->value();
  }
  return r;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

void run_sim(const Context& ctx, Outcome& out) {
  const std::vector<Cell> cells = make_cells(ctx.scale, ctx.seed);
  std::vector<PassResult> plain, traced;
  const bool full = ctx.scale == Scale::kFull;
  run_passes(ctx, full ? 5 : 2, full ? 200 : 2, [&](bool trace) {
    PassResult r = run_pass(cells, trace ? ctx.tracer : nullptr);
    (trace ? traced : plain).push_back(std::move(r));
  });

  const PassResult& first = plain.front();
  double gap = 0.0;
  std::size_t over = 0, nontrivial = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (first.analytic_acc[i] <= 1e-9) continue;  // zero-cost steady state
    ++nontrivial;
    const double disc = std::fabs(stats::relative_discrepancy_percent(
        first.analytic_acc[i], first.sim_acc[i]));
    gap = std::max(gap, disc);
    over += disc > kGapLimitPct;
  }
  std::size_t unstable = 0;
  for (const auto* passes : {&plain, &traced})
    for (const PassResult& r : *passes)
      for (std::size_t i = 0; i < cells.size(); ++i)
        unstable += !same_bits(r.sim_acc[i], first.sim_acc[i]) ||
                    !same_bits(r.sim_cost[i], first.sim_cost[i]) ||
                    !same_bits(r.analytic_acc[i], first.analytic_acc[i]);
  char detail[128];
  std::snprintf(detail, sizeof detail,
                "max |sim - analytic| %.2f%% over %zu non-trivial cells, %zu "
                "over %.0f%%",
                gap, nontrivial, over, kGapLimitPct);
  out.check("sim.acc_gap_within_8pct", over == 0, detail);
  out.check("sim.acc_bit_equal_across_passes", unstable == 0,
            std::to_string(unstable) + " cell results changed between passes");
  const std::size_t passes = plain.size() + traced.size();
  out.attempted += cells.size() * passes;
  out.failed += over * passes + unstable;

  std::vector<double> setup, run, analytic_s, share;
  std::vector<std::vector<double>> cell_us;
  for (const PassResult& r : plain) {
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    analytic_s.push_back(r.analytic_s);
    share.push_back(r.analytic_s / r.run_s * 100.0);
    cell_us.push_back(r.cell_us);
  }
  // run_s is the pass with every step at its median: the analytic solve's
  // median plus each cell's median time over the passes.  A pass of 96
  // cells is long enough to catch a stall of the host in most passes, so
  // the median of whole passes follows the host; a cell's median does not.
  double job_s = median(analytic_s);
  for (const double us : unit_medians(cell_us)) job_s += us / 1e6;
  double acc_sum = 0.0;
  for (const double acc : first.sim_acc) acc_sum += acc;
  out.set_e2e("setup_s", median(setup), setup.size());
  out.set_e2e("run_s", job_s, run.size());
  out.pass_s = run;
  out.set_e2e("ops_per_s", first.sim_ops / job_s, run.size());
  out.set_latency_us(cell_us);
  out.set_e2e("acc", acc_sum / static_cast<double>(cells.size()),
              cells.size());

  if (ctx.tracer != nullptr && !traced.empty()) {
    const Tracer& tracer = *ctx.tracer;
    std::uint64_t events = 0, messages = 0;
    double ops = 0.0;
    std::vector<double> traced_run;
    for (const PassResult& r : traced) {
      events += r.events;
      messages += r.messages;
      ops += r.sim_ops;
      traced_run.push_back(r.run_s);
    }
    const double n = static_cast<double>(traced.size());
    out.set_layer("sim.events", static_cast<double>(events) / n);
    out.set_layer("sim.ns_per_event",
                  events == 0 ? 0.0
                              : static_cast<double>(
                                    tracer.total_ns("sim.replications")) /
                                    static_cast<double>(events));
    out.set_layer("sim.events_per_op",
                  ops == 0.0 ? 0.0 : static_cast<double>(events) / ops);
    out.set_layer("sim.msgs_per_op",
                  ops == 0.0 ? 0.0 : static_cast<double>(messages) / ops);
    out.set_layer("sim.acc_gap_pct", gap);
    out.set_layer("analytic.share", median(share));
    out.set_layer("trace.overhead_pct", overhead_pct(traced_run, run));
  }
}

}  // namespace perfbench
