// adaptive_dsm — the paper's future-work proposal in action: a shared
// memory that estimates the workload's parameters from run-time
// information and switches to the analytically cheapest protocol.
//
// The program runs three workload phases with very different sharing
// patterns and narrates the classifier's decisions, then compares the
// total communication cost against the best and worst static choices.
#include <cstdio>

#include "adaptive/selector.h"
#include "workload/generator.h"

using namespace drsm;

namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kObjects = 8;
constexpr std::size_t kPhaseOps = 8000;

struct Phase {
  const char* description;
  workload::WorkloadSpec spec;
};

std::vector<Phase> make_phases() {
  return {
      {"producer/consumers: client 0 writes rarely, everyone reads",
       workload::read_disturbance(0.05, 0.25, 3)},
      {"hot private data: client 0 read-writes, nobody else touches it",
       workload::ideal_workload(0.7)},
      {"write contention: several writers updating the same objects",
       workload::write_disturbance(0.35, 0.15, 2)},
  };
}

template <typename Memory>
double run_phases(Memory& memory, const char* narrate_for) {
  std::uint64_t value = 0;
  std::uint64_t seed = 90;
  for (const Phase& phase : make_phases()) {
    if (narrate_for) std::printf("phase: %s\n", phase.description);
    workload::GlobalSequenceGenerator gen(phase.spec, ++seed, kObjects);
    for (std::size_t i = 0; i < kPhaseOps; ++i) {
      const auto op = gen.next();
      if (op.op == fsm::OpKind::kWrite)
        memory.write(op.node, op.object, ++value);
      else
        memory.read(op.node, op.object);
    }
    if constexpr (requires { memory.current_protocol(); }) {
      if (narrate_for)
        std::printf("  -> %s settled on: %s\n\n", narrate_for,
                    protocols::to_string(memory.current_protocol()));
    }
  }
  if constexpr (requires { memory.memory(); }) {
    return memory.memory().total_cost();
  } else {
    return memory.total_cost();
  }
}

dsm::SharedMemory::Options base_options() {
  dsm::SharedMemory::Options options;
  options.num_clients = kClients;
  options.num_objects = kObjects;
  options.costs.s = 500.0;
  options.costs.p = 20.0;
  return options;
}

}  // namespace

int main() {
  std::printf(
      "Self-tuning DSM: %zu clients, %zu objects, S=500, P=20, "
      "3 phases x %zu ops\n\n",
      kClients, kObjects, kPhaseOps);

  adaptive::AdaptiveSharedMemory::Options adaptive_options;
  adaptive_options.memory = base_options();
  adaptive_options.memory.protocol = protocols::ProtocolKind::kWriteThrough;
  adaptive_options.policy.decide_every = 512;
  adaptive_options.policy.window = 1024;
  adaptive::AdaptiveSharedMemory adaptive_memory(adaptive_options);
  const double adaptive_cost = run_phases(adaptive_memory, "classifier");
  std::printf("adaptive total cost: %.0f (%zu protocol switches)\n\n",
              adaptive_cost, adaptive_memory.switches());

  std::printf("static protocols on the same operation stream:\n");
  double best = -1.0, worst = -1.0;
  for (auto kind : protocols::kAllProtocols) {
    auto options = base_options();
    options.protocol = kind;
    dsm::SharedMemory memory(options);
    const double cost = run_phases(memory, nullptr);
    std::printf("  %-16s %12.0f\n", protocols::to_string(kind), cost);
    if (best < 0.0 || cost < best) best = cost;
    if (cost > worst) worst = cost;
  }
  std::printf(
      "\nadaptive=%.0f vs best static=%.0f (%.0f%% of best), "
      "worst static=%.0f\n",
      adaptive_cost, best, 100.0 * adaptive_cost / best, worst);
  return 0;
}
