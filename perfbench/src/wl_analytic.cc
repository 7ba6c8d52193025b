// analytic_grid: the Markov engine answering a 720-cell grid from a cold
// AccSolver on one thread — 8 protocols x {read disturbance, write
// disturbance, multiple activity centers} x a in {2,4,6,8,10} x
// p in {0.1,0.4,0.8} x sigma/xi in {0.005,0.02}, with N=50, S=5000, P=30.
// Multiple activity centers take a as beta and have no sigma, so their
// second sigma column re-solves a vector the chain has just solved.
//
// Every (protocol, deviation, a) triple is one chain; the seed permutes
// the order in which chains are visited.  Cells inside a chain keep their
// order, because re-solves warm-start from the chain's previous vector and
// the committed reference pins every acc bit for bit.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analytic/closed_form.h"
#include "analytic/solver.h"
#include "obs/metrics.h"
#include "support/rng.h"
#include "workload/spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace drsm;
using protocols::ProtocolKind;
namespace cf = analytic::closed_form;

constexpr std::size_t kN = 50;
constexpr double kS = 5000.0;
constexpr double kP = 30.0;
constexpr const char* kRefFile = "/analytic_grid.tsv";

enum class Deviation { kRead, kWrite, kMultipleAc };
const char* deviation_name(Deviation d) {
  switch (d) {
    case Deviation::kRead: return "read";
    case Deviation::kWrite: return "write";
    case Deviation::kMultipleAc: return "mac";
  }
  return "?";
}

struct Cell {
  double p = 0.0;
  double sigma = 0.0;
  workload::WorkloadSpec spec;
};

struct Chain {
  ProtocolKind kind = ProtocolKind::kWriteThrough;
  Deviation deviation = Deviation::kRead;
  std::size_t a = 0;
  std::vector<Cell> cells;

  std::string key(const Cell& cell) const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\t%s\t%zu\t%.3f\t%.3f",
                  protocols::to_string(kind), deviation_name(deviation), a,
                  cell.p, cell.sigma);
    return buf;
  }
};

sim::SystemConfig grid_config() {
  sim::SystemConfig config;
  config.num_clients = kN;
  config.costs.s = kS;
  config.costs.p = kP;
  return config;
}

Chain make_chain(ProtocolKind kind, Deviation deviation, std::size_t a) {
  Chain chain{kind, deviation, a, {}};
  for (const double p : {0.1, 0.4, 0.8}) {
    for (const double sigma : {0.005, 0.02}) {
      Cell cell{p, sigma, {}};
      switch (deviation) {
        case Deviation::kRead:
          cell.spec = workload::read_disturbance(p, sigma, a);
          break;
        case Deviation::kWrite:
          cell.spec = workload::write_disturbance(p, sigma, a);
          break;
        case Deviation::kMultipleAc:
          cell.spec = workload::multiple_activity_centers(p, a);
          break;
      }
      chain.cells.push_back(std::move(cell));
    }
  }
  return chain;
}

/// The grid in canonical order.  The probe of a traced run uses the whole
/// grid: it is the only source of the chain.* layer metrics on the other
/// workloads.  The tiny self-test grid is a subset of the reference.
std::vector<Chain> make_grid(Scale scale) {
  std::vector<ProtocolKind> kinds(protocols::kAllProtocols.begin(),
                                  protocols::kAllProtocols.end());
  std::vector<Deviation> deviations = {Deviation::kRead, Deviation::kWrite,
                                       Deviation::kMultipleAc};
  std::vector<std::size_t> as = {2, 4, 6, 8, 10};
  if (scale == Scale::kTiny) {
    kinds = {ProtocolKind::kWriteThrough, ProtocolKind::kBerkeley};
    deviations = {Deviation::kRead};
    as = {2, 4};
  }
  std::vector<Chain> grid;
  for (const ProtocolKind kind : kinds)
    for (const Deviation d : deviations)
      for (const std::size_t a : as) grid.push_back(make_chain(kind, d, a));
  return grid;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double closed_form_wt(const Chain& chain, const Cell& cell) {
  switch (chain.deviation) {
    case Deviation::kRead:
      return cf::wt_read_disturbance(cell.p, cell.sigma, chain.a, kN, kS, kP);
    case Deviation::kWrite:
      return cf::wt_write_disturbance(cell.p, cell.sigma, chain.a, kN, kS,
                                      kP);
    case Deviation::kMultipleAc:
      return cf::wt_multiple_ac(cell.p, chain.a, kN, kS, kP);
  }
  return 0.0;
}

std::map<std::string, std::uint64_t> read_ref(const std::string& path) {
  std::map<std::string, std::uint64_t> ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.rfind('\t');
    if (line.empty() || line[0] == '#' || tab == std::string::npos) continue;
    ref[line.substr(0, tab)] =
        std::strtoull(line.c_str() + tab + 1, nullptr, 16);
  }
  return ref;
}

struct PassResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> cell_us;
  std::vector<double> acc;  // in grid order (canonical, not visit order)
  std::size_t chain_states = 0;
  std::uint64_t power_iterations = 0;
  std::uint64_t chains_built = 0;
};

PassResult run_pass(const std::vector<Chain>& grid,
                    const std::vector<std::size_t>& order,
                    const Chain& warmup, Tracer* tracer) {
  PassResult r;
  const std::uint64_t setup_start = now_ns();
  {
    // Warm-up on a scratch solver: the timed solver stays cold.
    analytic::AccSolver scratch(grid_config());
    for (const Cell& cell : warmup.cells) scratch.acc(warmup.kind, cell.spec);
  }
  analytic::AccSolver solver(grid_config());
  obs::MetricsRegistry metrics;
  if (tracer != nullptr) solver.set_metrics(&metrics);
  Tracer::Log* log = tracer != nullptr ? &tracer->new_log() : nullptr;
  const std::uint64_t pass_id = log != nullptr ? log->new_id() : 0;

  std::vector<std::size_t> offset(grid.size(), 0);
  std::size_t cells = 0;
  for (std::size_t c = 0; c < grid.size(); ++c) {
    offset[c] = cells;
    cells += grid[c].cells.size();
  }
  r.acc.assign(cells, 0.0);
  const std::uint64_t start = now_ns();
  r.setup_s = seconds_between(setup_start, start);
  for (const std::size_t c : order) {
    const Chain& chain = grid[c];
    if (log != nullptr) {
      const std::uint64_t t0 = now_ns();
      r.chain_states += solver.chain(chain.kind, chain.cells[0].spec)
                            .num_states();
      log->record("analytic.chain", log->new_id(), pass_id, t0, now_ns());
    }
    for (std::size_t i = 0; i < chain.cells.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      r.acc[offset[c] + i] = solver.acc(chain.kind, chain.cells[i].spec);
      const std::uint64_t t1 = now_ns();
      r.cell_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (log != nullptr)
        log->record("analytic.solve", log->new_id(), pass_id, t0, t1);
    }
  }
  const std::uint64_t end = now_ns();
  r.run_s = seconds_between(start, end);
  if (log != nullptr) {
    log->record("analytic.pass", pass_id, 0, start, end);
    if (const auto* c = metrics.find_counter("analytic.power_iterations"))
      r.power_iterations = c->value();
    if (const auto* c = metrics.find_counter("analytic.chains_built"))
      r.chains_built = c->value();
  }
  return r;
}

}  // namespace

void run_grid(const Context& ctx, const std::string& ref_dir, Outcome& out) {
  const std::vector<Chain> grid = make_grid(ctx.scale);
  const Chain warmup =
      make_chain(ProtocolKind::kWriteThrough, Deviation::kRead, 6);
  std::vector<std::size_t> order(grid.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(ctx.seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_index(i)]);

  std::vector<PassResult> plain, traced;
  const bool full = ctx.scale == Scale::kFull;
  run_passes(ctx, full ? 5 : 2, full ? 200 : 2, [&](bool trace) {
    PassResult r = run_pass(grid, order, warmup, trace ? ctx.tracer : nullptr);
    (trace ? traced : plain).push_back(std::move(r));
  });

  // Correctness: bit-equality with the committed reference, closed form
  // (3)-(5) on the write-through cells, identical answers in every pass.
  const std::map<std::string, std::uint64_t> ref =
      read_ref(ref_dir + kRefFile);
  std::size_t cells = 0, mismatched = 0, missing = 0, wt_cells = 0;
  double worst_cf = 0.0;
  std::string first_bad;
  std::size_t index = 0;
  for (const Chain& chain : grid) {
    for (const Cell& cell : chain.cells) {
      const double acc = plain.front().acc[index++];
      ++cells;
      const auto it = ref.find(chain.key(cell));
      if (it == ref.end()) {
        ++missing;
      } else if (it->second != bits(acc)) {
        ++mismatched;
        if (first_bad.empty()) first_bad = chain.key(cell);
      }
      if (chain.kind == ProtocolKind::kWriteThrough) {
        ++wt_cells;
        const double closed = closed_form_wt(chain, cell);
        worst_cf = std::max(worst_cf, std::fabs(closed - acc) /
                                          std::max(1.0, std::fabs(closed)));
      }
    }
  }
  std::size_t unstable = 0;
  for (const auto* passes : {&plain, &traced})
    for (const PassResult& r : *passes)
      for (std::size_t i = 0; i < cells; ++i)
        unstable += bits(r.acc[i]) != bits(plain.front().acc[i]);
  out.check("grid.acc_bit_equal_reference", mismatched == 0 && missing == 0,
            std::to_string(mismatched) + " of " + std::to_string(cells) +
                " cells differ, " + std::to_string(missing) +
                " missing from the reference" +
                (first_bad.empty() ? "" : "; first: " + first_bad));
  char detail[96];
  std::snprintf(detail, sizeof detail,
                "%zu WT cells, max relative gap %.3g (limit 1e-9)", wt_cells,
                worst_cf);
  out.check("grid.wt_matches_closed_form", worst_cf <= 1e-9, detail);
  out.check("grid.acc_identical_every_pass", unstable == 0,
            std::to_string(unstable) + " cell answers changed between passes");
  const std::size_t passes = plain.size() + traced.size();
  out.attempted += cells * passes;
  out.failed += (mismatched + missing) * passes + unstable;

  std::vector<double> setup, run, rate;
  std::vector<std::vector<double>> cell_us;
  for (const PassResult& r : plain) {
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    rate.push_back(static_cast<double>(cells) / r.run_s);
    cell_us.push_back(r.cell_us);
  }
  double acc_sum = 0.0;
  for (const double acc : plain.front().acc) acc_sum += acc;
  out.set_e2e("setup_s", median(setup), setup.size());
  out.set_e2e("run_s", median(run), run.size());
  out.pass_s = run;
  out.set_e2e("ops_per_s", median(rate), rate.size());
  out.set_latency_us(cell_us);
  out.set_e2e("acc", acc_sum / static_cast<double>(cells), cells);

  if (ctx.tracer != nullptr && !traced.empty()) {
    const Tracer& tracer = *ctx.tracer;
    const double n = static_cast<double>(traced.size());
    const double build_ns =
        static_cast<double>(tracer.total_ns("analytic.chain")) / n;
    const std::size_t states = traced.front().chain_states;
    std::uint64_t iterations = 0, built = 0;
    for (const PassResult& r : traced) {
      iterations += r.power_iterations;
      built += r.chains_built;
    }
    const std::vector<double> solve = tracer.durations("analytic.solve");
    out.set_layer("chain.build_ms", build_ns / 1e6);
    out.set_layer("chain.states", static_cast<double>(states));
    out.set_layer("chain.build_ns_per_state",
                  states == 0 ? 0.0 : build_ns / static_cast<double>(states));
    out.set_layer("chain.solve_us_p50", quantile(solve, 0.5) / 1e3);
    out.set_layer("chain.solve_us_p99", quantile(solve, 0.99) / 1e3);
    out.set_layer("analytic.power_iterations",
                  static_cast<double>(iterations) / n);
    out.set_layer("solver.chain_reuse_ratio",
                  built == 0 ? 0.0
                             : static_cast<double>(cells) * n /
                                   static_cast<double>(built));
    std::vector<double> traced_run;
    for (const PassResult& r : traced) traced_run.push_back(r.run_s);
    out.set_layer("trace.overhead_pct", overhead_pct(traced_run, run));
  }
}

bool write_grid_ref(const std::string& ref_dir) {
  const std::vector<Chain> grid = make_grid(Scale::kFull);
  std::vector<std::size_t> order(grid.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const Chain warmup =
      make_chain(ProtocolKind::kWriteThrough, Deviation::kRead, 6);
  const PassResult r = run_pass(grid, order, warmup, nullptr);
  std::ofstream out(ref_dir + kRefFile);
  out << "# analytic_grid reference: protocol, deviation, a, p, sigma/xi, "
         "acc as IEEE-754 bits (hex); N=50 S=5000 P=30, cold AccSolver\n";
  std::size_t index = 0;
  for (const Chain& chain : grid)
    for (const Cell& cell : chain.cells) {
      char hex[32];
      std::snprintf(hex, sizeof hex, "%016" PRIx64, bits(r.acc[index++]));
      out << chain.key(cell) << '\t' << hex << '\n';
    }
  return static_cast<bool>(out);
}

}  // namespace perfbench
