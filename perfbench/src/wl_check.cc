// check_verify: the reduced model checker (symmetry + partial-order
// reduction, parallel frontier on 2 threads) exhausting a fixed list of
// worlds — every protocol at N=3, write-through at N=4, and the N=2 live
// migration world of each of the 64 ordered protocol pairs.  The seed
// permutes the order in which worlds are checked.
//
// Every count is compared with the committed single-thread reference.  A
// world whose states or transitions differ from it is a failed unit and
// is counted in check.states_drift: the reduced engine's counts are meant
// to be schedule-independent at any thread count, so a difference is a
// checker defect the benchmark reports rather than hides.
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analytic/solver.h"
#include "check/model_checker.h"
#include "dsm/migration.h"
#include "support/rng.h"
#include "workload/spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace drsm;
using protocols::ProtocolKind;

constexpr std::size_t kCheckThreads = 2;
constexpr const char* kRefFile = "/check_counts.tsv";

struct World {
  std::string name;
  check::CheckConfig config;
  std::size_t clients = 0;  // > 0 for the plain-protocol worlds
};

World protocol_world(ProtocolKind kind, std::size_t clients) {
  World w;
  w.name = std::to_string(clients);
  w.name.insert(0, 1, 'n');
  w.name += '/';
  w.name += protocols::to_string(kind);
  w.config.protocol = kind;
  w.config.num_clients = clients;
  w.config.reads_per_client = 1;
  w.config.writes_per_client = 1;
  w.clients = clients;
  return w;
}

World migration_world(ProtocolKind from, ProtocolKind to) {
  dsm::MigrationWorldOptions options;
  options.from = from;
  options.to = to;
  options.num_clients = 2;
  World w;
  w.name = std::string("mig/") + protocols::to_string(from) + "->" +
           protocols::to_string(to);
  w.config = dsm::migration_check_config(options);
  return w;
}

std::vector<World> make_worlds(Scale scale, std::size_t threads) {
  std::vector<World> worlds;
  if (scale == Scale::kFull) {
    for (const ProtocolKind kind : protocols::kAllProtocols)
      worlds.push_back(protocol_world(kind, 3));
    worlds.push_back(protocol_world(ProtocolKind::kWriteThrough, 4));
    for (const ProtocolKind from : protocols::kAllProtocols)
      for (const ProtocolKind to : protocols::kAllProtocols)
        worlds.push_back(migration_world(from, to));
  } else {
    worlds.push_back(protocol_world(ProtocolKind::kWriteThrough, 3));
    worlds.push_back(protocol_world(ProtocolKind::kWriteOnce, 3));
    worlds.push_back(migration_world(ProtocolKind::kWriteThrough,
                                     ProtocolKind::kBerkeley));
    if (scale == Scale::kProbe) {
      worlds.push_back(protocol_world(ProtocolKind::kIllinois, 3));
      worlds.push_back(migration_world(ProtocolKind::kBerkeley,
                                       ProtocolKind::kDragon));
    }
  }
  for (World& w : worlds) w.config.threads = threads;
  return worlds;
}

struct Counts {
  std::size_t states = 0;
  std::size_t transitions = 0;
};

std::map<std::string, Counts> read_ref(const std::string& path) {
  std::map<std::string, Counts> ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char name[128];
    Counts c;
    if (std::sscanf(line.c_str(), "%127s %zu %zu", name, &c.states,
                    &c.transitions) == 3)
      ref[name] = c;
  }
  return ref;
}

struct PassResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> world_us;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t symmetry_hits = 0;
  std::uint64_t por_pruned = 0;
  std::size_t drift = 0;
  std::size_t violations = 0;
  std::size_t capped = 0;
  std::size_t unreferenced = 0;
  std::string first_problem;
};

PassResult run_pass(const std::vector<World>& worlds,
                    const std::vector<std::size_t>& order,
                    const std::map<std::string, Counts>& ref,
                    Tracer* tracer) {
  PassResult r;
  const std::uint64_t setup_start = now_ns();
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    // Warm-up: the N=2 world of every protocol, result discarded.
    World warm = protocol_world(kind, 2);
    warm.config.threads = kCheckThreads;
    check::check_protocol(warm.config);
  }
  Tracer::Log* log = tracer != nullptr ? &tracer->new_log() : nullptr;
  const std::uint64_t pass_id = log != nullptr ? log->new_id() : 0;
  const std::uint64_t start = now_ns();
  r.setup_s = seconds_between(setup_start, start);
  for (const std::size_t w : order) {
    const World& world = worlds[w];
    const std::uint64_t t0 = now_ns();
    const check::CheckResult result = check::check_protocol(world.config);
    const std::uint64_t t1 = now_ns();
    if (log != nullptr)
      log->record("check.world", log->new_id(), pass_id, t0, t1);
    r.world_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    r.states += result.states;
    r.transitions += result.transitions;
    r.symmetry_hits += result.symmetry_hits;
    r.por_pruned += result.por_pruned;
    auto note = [&](const std::string& what) {
      if (r.first_problem.empty()) r.first_problem = world.name + ": " + what;
    };
    if (!result.ok()) {
      ++r.violations;
      note(std::string("violation ") + result.violations.front().invariant);
    }
    if (result.hit_state_cap) {
      ++r.capped;
      note("hit the state cap");
    }
    const auto it = ref.find(world.name);
    if (it == ref.end()) {
      ++r.unreferenced;
      note("no reference counts");
    } else if (it->second.states != result.states ||
               it->second.transitions != result.transitions) {
      ++r.drift;
      std::printf("# drift: %s %zu states / %zu transitions, single-thread "
                  "reference %zu / %zu\n",
                  world.name.c_str(), result.states, result.transitions,
                  it->second.states, it->second.transitions);
    }
  }
  const std::uint64_t end = now_ns();
  r.run_s = seconds_between(start, end);
  if (log != nullptr) log->record("check.pass", pass_id, 0, start, end);
  return r;
}

/// The paper's acc for the verified configurations: every protocol world
/// under the homogeneous workload its budget issues (each client reads
/// and writes equally often: beta = N activity centers, p = 0.5).  It is
/// a constant of the world list, solved outside the timed phase, and says
/// nothing about the checker: it is reported only because every workload
/// must report acc.
double verified_worlds_acc(const std::vector<World>& worlds,
                           std::size_t& count) {
  double sum = 0.0;
  count = 0;
  for (const World& w : worlds) {
    if (w.clients == 0) continue;
    sim::SystemConfig config;
    config.num_clients = w.clients;
    analytic::AccSolver solver(config);
    sum += solver.acc(w.config.protocol,
                      workload::multiple_activity_centers(0.5, w.clients));
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

void run_check(const Context& ctx, const std::string& ref_dir, Outcome& out) {
  const std::vector<World> worlds = make_worlds(ctx.scale, kCheckThreads);
  const std::map<std::string, Counts> ref = read_ref(ref_dir + kRefFile);
  std::vector<std::size_t> order(worlds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(ctx.seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_index(i)]);

  std::vector<PassResult> plain, traced;
  const bool full = ctx.scale == Scale::kFull;
  run_passes(ctx, full ? 4 : 2, full ? 200 : 2, [&](bool trace) {
    PassResult r = run_pass(worlds, order, ref, trace ? ctx.tracer : nullptr);
    (trace ? traced : plain).push_back(std::move(r));
  });

  std::size_t drift = 0, violations = 0, capped = 0, unreferenced = 0;
  std::string problem;
  for (const auto* passes : {&plain, &traced})
    for (const PassResult& r : *passes) {
      drift += r.drift;
      violations += r.violations;
      capped += r.capped;
      unreferenced += r.unreferenced;
      if (problem.empty()) problem = r.first_problem;
    }
  const std::size_t passes = plain.size() + traced.size();
  out.check("check.verdicts_ok", violations == 0,
            std::to_string(violations) + " violations" +
                (problem.empty() ? "" : "; first: " + problem));
  out.check("check.no_state_cap", capped == 0,
            std::to_string(capped) + " worlds hit the state cap");
  out.check("check.reference_covers_worlds", unreferenced == 0,
            std::to_string(unreferenced) + " worlds missing from the "
            "single-thread reference");
  // Count drift is a failed unit, not a wrong verdict: see the file
  // comment.  It is reported, never retried away.
  std::printf("# state-count drift vs single-thread reference: %zu of %zu "
              "world checks\n",
              drift, worlds.size() * passes);
  out.attempted += worlds.size() * passes;
  out.failed += drift + violations + capped + unreferenced;

  std::vector<double> setup, run, rate;
  std::vector<std::vector<double>> world_us;
  for (const PassResult& r : plain) {
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    rate.push_back(static_cast<double>(r.states) / r.run_s);
    world_us.push_back(r.world_us);
  }
  std::size_t acc_worlds = 0;
  const double acc = verified_worlds_acc(worlds, acc_worlds);
  out.set_e2e("setup_s", median(setup), setup.size());
  out.set_e2e("run_s", median(run), run.size());
  out.pass_s = run;
  out.set_e2e("ops_per_s", median(rate), rate.size());
  out.set_latency_us(world_us);
  out.set_e2e("acc", acc, acc_worlds);

  if (ctx.tracer != nullptr && !traced.empty()) {
    const double n = static_cast<double>(traced.size());
    std::uint64_t states = 0, transitions = 0, sym = 0, por = 0;
    std::vector<double> traced_run;
    for (const PassResult& r : traced) {
      states += r.states;
      transitions += r.transitions;
      sym += r.symmetry_hits;
      por += r.por_pruned;
      traced_run.push_back(r.run_s);
    }
    const double world_ns =
        static_cast<double>(ctx.tracer->total_ns("check.world"));
    out.set_layer("check.states", static_cast<double>(states) / n);
    out.set_layer("check.transitions", static_cast<double>(transitions) / n);
    out.set_layer("check.symmetry_hits", static_cast<double>(sym) / n);
    out.set_layer("check.por_pruned", static_cast<double>(por) / n);
    out.set_layer("check.states_per_s",
                  world_ns == 0.0 ? 0.0
                                  : static_cast<double>(states) * 1e9 /
                                        world_ns);
    out.set_layer("check.ns_per_transition",
                  transitions == 0 ? 0.0
                                   : world_ns /
                                         static_cast<double>(transitions));
    out.set_layer("check.states_drift", static_cast<double>(drift));
    out.set_layer("trace.overhead_pct", overhead_pct(traced_run, run));
  }
}

bool write_check_ref(const std::string& ref_dir) {
  const std::vector<World> worlds = make_worlds(Scale::kFull, 1);
  std::ofstream out(ref_dir + kRefFile);
  out << "# check_verify reference: world, states, transitions — the "
         "reduced engine at threads=1\n";
  for (const World& w : worlds) {
    const check::CheckResult r = check::check_protocol(w.config);
    if (!r.ok() || r.hit_state_cap) return false;
    out << w.name << '\t' << r.states << '\t' << r.transitions << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
