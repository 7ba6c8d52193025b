#include "adaptive/selector.h"

#include <algorithm>
#include <optional>

#include "support/error.h"

namespace drsm::adaptive {

using fsm::OpKind;
using protocols::ProtocolKind;

namespace {

// A recent per-node mix as an empirical spec over the client rows;
// nullopt when those rows hold no accesses (nothing to classify from).
std::optional<workload::WorkloadSpec> recent_spec(
    const std::vector<obs::AccessStats::NodeMix>& mix,
    std::size_t num_clients) {
  const std::size_t nodes = std::min(mix.size(), num_clients);
  double total = 0.0;
  for (std::size_t node = 0; node < nodes; ++node)
    total += static_cast<double>(mix[node].reads + mix[node].writes);
  if (total == 0.0) return std::nullopt;
  workload::WorkloadSpec spec;
  spec.name = "telemetry";
  for (std::size_t node = 0; node < nodes; ++node) {
    const double reads = static_cast<double>(mix[node].reads);
    const double writes = static_cast<double>(mix[node].writes);
    if (reads == 0.0 && writes == 0.0) continue;
    // Keep both event kinds for any active node so the cached chain
    // structure stays stable while the mix drifts between passes.
    spec.events.push_back(
        {static_cast<NodeId>(node), OpKind::kRead, reads / total});
    spec.events.push_back(
        {static_cast<NodeId>(node), OpKind::kWrite, writes / total});
  }
  spec.validate();
  return spec;
}

}  // namespace

AdaptiveSelector::AdaptiveSelector(
    const sim::SystemConfig& config,
    std::vector<ProtocolKind> candidates)
    : solver_(config),
      candidates_(std::move(candidates)),
      num_clients_(config.num_clients) {
  if (candidates_.empty())
    candidates_.assign(protocols::kAllProtocols.begin(),
                       protocols::kAllProtocols.end());
}

AdaptiveSelector::Classification AdaptiveSelector::classify(
    const workload::WorkloadSpec& spec) {
  Classification best{candidates_.front(),
                      solver_.acc(candidates_.front(), spec)};
  for (std::size_t i = 1; i < candidates_.size(); ++i) {
    const double acc = solver_.acc(candidates_[i], spec);
    if (acc < best.predicted_acc) best = {candidates_[i], acc};
  }
  return best;
}

workload::WorkloadSpec AdaptiveSelector::spec_from_telemetry(
    const obs::AccessStats& stats, ObjectId object,
    std::size_t num_clients) {
  std::optional<workload::WorkloadSpec> spec =
      recent_spec(stats.node_mix(object), num_clients);
  DRSM_CHECK(spec.has_value(),
             "spec_from_telemetry: no recent client accesses to the object");
  return *std::move(spec);
}

AdaptiveSelector::Classification AdaptiveSelector::classify_object(
    const obs::AccessStats& stats, ObjectId object) {
  return classify(spec_from_telemetry(stats, object, num_clients_));
}

SelfTuner::SelfTuner(const Policy& policy, std::size_t num_clients,
                     std::size_t num_objects, const fsm::CostModel& costs,
                     ProtocolKind initial)
    : policy_(policy),
      num_clients_(num_clients),
      selector_(sim::SystemConfig{num_clients, costs, 1}, policy.candidates),
      // Windows are half the recent-mix span: node_mix sums the last
      // closed window plus the current partial one.
      stats_(obs::AccessStatsOptions{
          std::max<std::size_t>(1, policy.window / 2)}),
      current_(num_objects, initial),
      cooldown_until_(num_objects, 0) {
  DRSM_CHECK(policy_.decide_every >= 1, "decide_every must be positive");
}

bool SelfTuner::pass_due() {
  if (pending_ < policy_.decide_every) return false;
  pending_ -= policy_.decide_every;
  return true;
}

ProtocolKind SelfTuner::gate(ProtocolKind incumbent,
                             const workload::WorkloadSpec& spec) {
  const auto best = selector_.classify(spec);
  if (best.protocol == incumbent) return incumbent;
  const double incumbent_acc = selector_.solver().acc(incumbent, spec);
  return best.predicted_acc < (1.0 - policy_.hysteresis) * incumbent_acc
             ? best.protocol
             : incumbent;
}

void SelfTuner::end_pass(std::chrono::steady_clock::time_point start) {
  reclassify_ms_ += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
}

void SelfTuner::decide_objects(
    const std::function<void(ObjectId, ProtocolKind)>& switch_object) {
  const auto start = std::chrono::steady_clock::now();
  ++passes_;
  for (const auto& hot : stats_.hot_set(kHotK)) {
    const ObjectId object = hot.object;
    if (object >= current_.size() || cooldown_until_[object] > passes_)
      continue;
    const auto& lifetime = stats_.object(object);
    if (lifetime.reads + lifetime.writes < policy_.min_observations)
      continue;
    const auto spec = recent_spec(stats_.node_mix(object), num_clients_);
    if (!spec) continue;
    const ProtocolKind next = gate(current_[object], *spec);
    if (next == current_[object]) continue;
    switch_object(object, next);
    current_[object] = next;
    cooldown_until_[object] = passes_ + kCooldownPasses;
    ++switches_;
  }
  end_pass(start);
}

void SelfTuner::decide_global(
    const std::function<void(ProtocolKind)>& switch_all) {
  const auto start = std::chrono::steady_clock::now();
  ++passes_;
  if (stats_.accesses() >= policy_.min_observations) {
    // The memory-wide recent mix: every object's window, client rows only.
    std::vector<obs::AccessStats::NodeMix> mix(num_clients_);
    for (ObjectId object = 0; object < stats_.num_objects(); ++object) {
      const auto object_mix = stats_.node_mix(object);
      for (std::size_t n = 0; n < object_mix.size() && n < num_clients_;
           ++n) {
        mix[n].reads += object_mix[n].reads;
        mix[n].writes += object_mix[n].writes;
      }
    }
    const auto spec = recent_spec(mix, num_clients_);
    const ProtocolKind incumbent = current_.front();
    const ProtocolKind next = spec ? gate(incumbent, *spec) : incumbent;
    if (next != incumbent) {
      switch_all(next);
      std::fill(current_.begin(), current_.end(), next);
      ++switches_;
    }
  }
  end_pass(start);
}

AdaptiveSharedMemory::AdaptiveSharedMemory(const Options& options)
    : SelfTuner(options.policy, options.memory.num_clients,
                options.memory.num_objects, options.memory.costs,
                options.memory.protocol),
      per_object_(options.per_object),
      memory_(options.memory) {}

std::uint64_t AdaptiveSharedMemory::read(NodeId node, ObjectId object) {
  const std::uint64_t value = memory_.read(node, object);
  tune(node, object, OpKind::kRead);
  return value;
}

void AdaptiveSharedMemory::write(NodeId node, ObjectId object,
                                 std::uint64_t value) {
  memory_.write(node, object, value);
  tune(node, object, OpKind::kWrite);
}

void AdaptiveSharedMemory::tune(NodeId node, ObjectId object, OpKind op) {
  observe(node, object, op);
  if (!pass_due()) return;
  if (per_object_) {
    decide_objects([this](ObjectId j, ProtocolKind to) {
      memory_.switch_protocol(j, to);
    });
  } else {
    decide_global([this](ProtocolKind to) { memory_.switch_protocol(to); });
  }
}

}  // namespace drsm::adaptive
