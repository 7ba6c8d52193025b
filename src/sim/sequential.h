// SequentialRuntime: executes shared-memory operations one at a time, each
// run to network quiescence before the next begins.
//
// This is the semantics under which the paper's analysis holds (operations
// form "a sequence of repeated independent trials", Section 4.3): an
// operation's whole trace of actions completes atomically.  The analytic
// Markov engine drives this runtime to enumerate protocol state spaces and
// exact per-operation costs, and the lockstep simulation driver uses it for
// sampled workloads.  The runtime is copyable so the engine can snapshot
// and restore protocol states cheaply.
//
// Only the nodes that will ever issue operations (the roster) plus the home
// node carry live machines; broadcasts still *charge* for every receiver in
// the N+1-node system, but deliver only to live machines.  Nodes outside
// the roster never act, so their (constant) state cannot influence costs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "fsm/mealy.h"
#include "obs/trace.h"
#include "protocols/protocol.h"
#include "sim/coherence_tap.h"
#include "sim/config.h"

namespace drsm::sim {

/// Result of one atomically executed operation.
struct OpResult {
  Cost cost = 0.0;              // total communication cost of the trace
  std::size_t messages = 0;     // inter-node messages in the trace
  std::uint64_t read_value = 0; // value returned (reads only)
  std::uint64_t read_version = 0;
  bool read_returned = false;
  bool completed = false;       // write/eject/sync completion observed
};

class SequentialRuntime {
 public:
  /// `roster` lists the client nodes that will issue operations; the home
  /// node is always live and may issue operations too.
  SequentialRuntime(protocols::ProtocolKind kind, const SystemConfig& config,
                    std::vector<NodeId> roster);

  /// As above, but machines come from a caller-supplied factory (used to
  /// run the formal transition-table machines of fsm/table.h through the
  /// same harness).  Operation-support checks are skipped.
  using MachineFactory =
      std::function<std::unique_ptr<fsm::ProtocolMachine>(NodeId)>;
  SequentialRuntime(const MachineFactory& factory, const SystemConfig& config,
                    std::vector<NodeId> roster);

  SequentialRuntime(const SequentialRuntime& other);
  SequentialRuntime& operator=(const SequentialRuntime& other);
  SequentialRuntime(SequentialRuntime&&) noexcept = default;
  SequentialRuntime& operator=(SequentialRuntime&&) noexcept = default;

  /// Executes one operation to completion.  Write operations carry the
  /// value to store.  Throws drsm::Error if the protocol does not support
  /// the operation kind.
  OpResult execute(NodeId node, fsm::OpKind op, std::uint64_t value = 0);

  /// Switches the object to protocol `to` at quiescence (always, between
  /// execute() calls): replaces every live machine with a fresh one of the
  /// new protocol, then re-seeds the new machines with the latest
  /// serialized write by re-committing the same (value, version) pair
  /// through a home write — the version counter is rewound by one so the
  /// seed draws the *same* version, keeping the serialization history
  /// contiguous (the oracle accepts duplicate reports of an identical
  /// pair).  The observer, sink, and coherence tap are detached for the
  /// seed, so referees see one unbroken per-object history across the
  /// switch.  Returns the seed's communication cost (the runtime-level
  /// price of the migration; zero when the object was never written).
  /// No-op when `to` is the current protocol.  Not available on
  /// factory-built runtimes.
  OpResult migrate(protocols::ProtocolKind to);

  /// Protocol-relevant state of all live machines, usable as a Markov-state
  /// key.  Only valid at quiescence (always, between execute() calls).
  std::vector<std::uint8_t> encode_state() const;

  /// Allocation-free variant: clears `out` and appends the encoding.
  void encode_state(std::vector<std::uint8_t>& out) const;

  /// Restores all machines from a key produced by encode_state() on a
  /// runtime with the same protocol, config and roster; the runtime is
  /// then quiescent and ready to execute() from the restored state.  Data
  /// values/versions are not restored (they are not part of the key and
  /// do not influence traces).  A truncated or over-long key throws
  /// drsm::Error, leaving the machine states unspecified.
  void restore_state(const std::vector<std::uint8_t>& key);

  /// The value and version of the globally latest sequenced write.
  std::uint64_t latest_value() const { return latest_value_; }
  std::uint64_t latest_version() const { return version_counter_; }

  const SystemConfig& config() const { return config_; }
  protocols::ProtocolKind protocol() const { return kind_; }
  const std::vector<NodeId>& roster() const { return roster_; }

  /// Copy-state name at `node` (for tests and the trace inspector).
  const char* state_name(NodeId node) const;

  /// Observer invoked for every inter-node message (src, dst, message).
  using Observer =
      std::function<void(NodeId, NodeId, const fsm::Message&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Attaches a structured trace sink.  The time axis is the operation
  /// index (each execute() call spans one unit): operation issue/complete,
  /// every inter-node message as a paired send/recv, and copy-state
  /// transitions are delivered.  With no sink the instrumentation is one
  /// null check per site.  Pass nullptr to detach.
  void set_sink(obs::EventSink* sink) { sink_ = sink; }

  /// Attaches a coherence tap (see sim/coherence_tap.h).  The time axis is
  /// the operation index, as for set_sink.  Not copied by snapshots, like
  /// the observer and sink.  Pass nullptr to detach.
  void set_coherence_tap(CoherenceTap* tap) { tap_ = tap; }

 private:
  class Context;
  friend class Context;

  fsm::ProtocolMachine* machine(NodeId node);
  void drain(Context& ctx);
  void dispatch(Context& ctx, fsm::ProtocolMachine& target, NodeId node,
                const fsm::Message& msg);

  protocols::ProtocolKind kind_;
  bool custom_machines_ = false;
  SystemConfig config_;
  std::vector<NodeId> roster_;  // sorted, home appended
  std::vector<std::unique_ptr<fsm::ProtocolMachine>> machines_;  // by roster_
  struct Pending {
    NodeId dest = 0;
    fsm::Message msg;
    std::uint64_t id = 0;  // send/recv pairing; 0 = untraced
  };
  std::deque<Pending> network_;
  std::uint64_t version_counter_ = 0;
  std::uint64_t latest_value_ = 0;
  std::uint64_t op_index_ = 0;   // trace time axis
  std::uint64_t msg_seq_ = 0;
  std::uint64_t span_seq_ = 0;   // causal span ids, one per execute()
  Observer observer_;  // not copied by design (snapshots stay silent)
  obs::EventSink* sink_ = nullptr;  // likewise not copied
  CoherenceTap* tap_ = nullptr;     // likewise not copied
};

}  // namespace drsm::sim
