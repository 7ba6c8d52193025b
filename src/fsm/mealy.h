// The Mealy-machine protocol-process interface (Section 3 of the paper).
//
// A protocol process controls one copy of one shared object at one node.
// It consumes messages (application requests from the local queue, protocol
// messages from the distributed queue) and reacts by sending messages,
// returning data to the application, and enabling/disabling its local
// queue.  The *runtime* (either the sequential AtomicExecutor used by the
// analytic engine, or the discrete-event simulator) owns delivery, cost
// accounting and queue mechanics; machines only express protocol logic.
#pragma once

#include <cstdint>
#include <memory>
#include <initializer_list>
#include <vector>

#include "fsm/field_codec.h"
#include "fsm/token.h"
#include "support/types.h"

namespace drsm::fsm {

/// Runtime services available to a protocol process while it handles one
/// message.  All sends are charged to the current operation's trace.
///
/// Threading contract: a machine and the context it is handed are confined
/// to one thread at a time.  Every runtime in the repo honors this by
/// construction — the sequential/event runtimes are single-threaded, the
/// threaded runtime gives each node's machines to that node's thread, and
/// the sharded concurrent runtime confines each object's machine set to
/// its shard's event-loop thread.  Implementations of this interface that
/// are shared across threads (e.g. ThreadedCtx) must make their own
/// members safe; the machine itself never needs internal synchronization.
class MachineContext {
 public:
  virtual ~MachineContext() = default;

  /// This node's index.  Clients are 0..N-1; the home/sequencer node is N
  /// (the paper's node N+1).
  virtual NodeId self() const = 0;

  /// N: the number of client nodes.
  virtual std::size_t num_clients() const = 0;

  /// The distinguished node whose protocol process is the initial sequencer.
  NodeId home() const { return static_cast<NodeId>(num_clients()); }

  /// N+1 in the paper's terms.
  std::size_t num_nodes() const { return num_clients() + 1; }

  virtual const CostModel& costs() const = 0;

  /// Sends one message to `dest`'s distributed queue.  Inter-node sends are
  /// charged message_cost(token.params); a send to self is free (local
  /// action).
  virtual void send(NodeId dest, Message msg) = 0;

  /// The paper's push(except(list), ...): send to every node whose index is
  /// not in `excluded`.  The caller includes itself in the list.  Takes an
  /// initializer_list — the exclusion sets are tiny brace-lists at every
  /// call site, and a braced std::vector argument would heap-allocate on
  /// each broadcast of the simulator's hot path.
  virtual void send_except(std::initializer_list<NodeId> excluded,
                           Message msg) = 0;

  /// Returns read data to the local application process (the paper's
  /// return(parameters_r, user_information) routine).
  virtual void return_read(std::uint64_t value, std::uint64_t version) = 0;

  /// Signals that the local application's pending write has finished (for
  /// fire-and-forget writes version may be 0 = not yet sequenced).
  virtual void complete_write(std::uint64_t version) = 0;

  /// Completion of an eject/sync extension operation.
  virtual void complete_op() = 0;

  /// Disable/enable the local queue (paper Section 2: a distributed
  /// operation awaiting a sequencer response blocks further local requests).
  virtual void disable_local_queue() = 0;
  virtual void enable_local_queue() = 0;

  /// Draws the next global write sequence number.  Must only be called at
  /// the point that serializes writes for this object (the sequencer or the
  /// current owner), so that version order equals the sequenced write order.
  virtual std::uint64_t next_version() = 0;

  /// Reports that a write's value has been bound to its sequence number —
  /// the serialization point of the write.  Machines call this wherever
  /// they apply a (value, version) pair that defines the sequenced content
  /// of the object; duplicate reports of the same pair are fine (e.g. both
  /// the writer and the sequencer may report a two-phase write).  The
  /// default is a no-op; the coherence oracle and model checker override
  /// it to build the serialized write log they validate reads against.
  virtual void commit_write(std::uint64_t version, std::uint64_t value) {
    (void)version;
    (void)value;
  }
};

/// A protocol process.  Implementations are deterministic: the same message
/// in the same state always produces the same actions (Mealy semantics).
class ProtocolMachine {
 public:
  virtual ~ProtocolMachine() = default;

  /// Handles one dequeued message.
  virtual void on_message(MachineContext& ctx, const Message& msg) = 0;

  virtual std::unique_ptr<ProtocolMachine> clone() const = 0;

  /// The machine's state schema: hands every field to `f` once, under
  /// the tag that says what the field is.  A field that matters only
  /// under some control value (the request a pending recall serves) is
  /// visited only under that condition, read from fields visited before
  /// it.  Every codec below is this one visit under a different
  /// FieldCodec view:
  ///
  ///   tag            key  behaviour  relabeled      snapshot
  ///   control        yes  yes        yes            yes
  ///   transient      -    yes        yes            yes
  ///   data           -    -          -              yes
  ///   node id        yes  yes        mapped         yes
  ///   client set     yes  yes        permuted       yes
  ///   message(s)     -    token      token, mapped  every field
  ///   summary        yes  yes        yes            -
  ///
  /// Keys are taken only at quiescence, so their decode resets transient
  /// fields and buffered messages, and leaves data stale: data never
  /// selects a transition, so two machines whose keys agree behave alike
  /// on every future trace.  A relabeling sends client id i to map[i] and
  /// fixes the home node and kNoNode, so two machines whose relabeled
  /// keys agree under one map behave alike once the whole system is
  /// relabeled the same way — the client symmetry the checker's orbit
  /// reduction rests on.  The snapshot is exact: decode_state() on a
  /// freshly constructed machine, then any message sequence, is
  /// indistinguishable from the original.
  virtual void visit_fields(FieldCodec& f) = 0;

  /// Appends the quiescent key (the analytic engine's Markov state).
  void encode(std::vector<std::uint8_t>& out) const {
    FieldCodec f(FieldCodec::View::kKey, out);
    visit(f);
  }

  /// Restores from an encode() key at `p` (bounded by `end`), advancing
  /// `p`.  Malformed bytes throw drsm::Error.
  void decode(const std::uint8_t*& p, const std::uint8_t* end) {
    FieldCodec f(FieldCodec::View::kKeyDecode, p, end);
    visit_fields(f);
  }

  /// Appends the behaviour key, defined in every state (the checker's
  /// dedup key).
  void encode_full(std::vector<std::uint8_t>& out) const {
    FieldCodec f(FieldCodec::View::kBehaviour, out);
    visit(f);
  }

  /// encode_full() under the client relabeling `map` (`num_clients`
  /// entries).  Returns true.
  bool encode_relabeled(std::vector<std::uint8_t>& out, const NodeId* map,
                        std::size_t num_clients) const {
    FieldCodec f(FieldCodec::View::kRelabeled, out, map, num_clients);
    visit(f);
    return true;
  }

  /// Appends the exact snapshot.
  void encode_state(std::vector<std::uint8_t>& out) const {
    FieldCodec f(FieldCodec::View::kSnapshot, out);
    visit(f);
  }

  /// Inverse of encode_state().  Returns true; malformed bytes throw
  /// drsm::Error.
  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) {
    FieldCodec f(FieldCodec::View::kSnapshotDecode, p, end);
    visit_fields(f);
    return true;
  }

  /// True when the machine holds no in-flight transient state (no pending
  /// retries or buffered requests).  The analytic engine snapshots states
  /// only at quiescence and asserts this.
  virtual bool quiescent() const { return true; }

  /// Human-readable copy state, for traces and tests.
  virtual const char* state_name() const = 0;

 private:
  // Encoding views only read the fields they are handed.
  void visit(FieldCodec& f) const {
    const_cast<ProtocolMachine*>(this)->visit_fields(f);
  }
};

}  // namespace drsm::fsm
