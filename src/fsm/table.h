// The paper's *formal* protocol description: a Mealy machine given as a
// transition table MM = (Q, Sigma, Omega, delta, lambda, q0), where output
// routines are concatenations of the seven simple functions of Section 3
// (pop, push, except, change, return, plus disable/enable).
//
// The Write-Through client and sequencer tables (the paper's Tables 1-3)
// are provided by write_through_client_table() / write_through_sequencer_
// table(); TableMachine interprets any such table.  The hand-written
// protocol machines in src/protocols are validated against this formal
// model in the test suite.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fsm/mealy.h"

namespace drsm::fsm {

/// One primitive step of an output routine.
struct Action {
  enum class Kind {
    kPopRead,      // pop(parameters_r): consume read parameters
    kPopWrite,     // pop(parameters_w): stash the write parameters
    kPopUserInfo,  // pop(user_information): install value+version from msg
    kChange,       // change(parameters_w, user_information): apply the write
                   // and draw the next global sequence number
    kChangeFromMessage,  // apply value+version carried by the message if it
                         // is at least as new (update protocols)
    kApplyPendingLocal,  // apply the stashed write locally, version as-is
    kApplyPendingWithMsgVersion,  // apply the stashed write with the
                                  // sequence number the grant carries
    kReturn,       // return(parameters_r, user_information)
    kPush,         // push(destination, token [, parameters])
    kDisable,      // disable the local queue
    kEnable,       // enable the local queue
    kCompleteWrite,  // signal write completion to the application
    kCompleteOp,     // signal eject/sync completion
  };

  /// Destination of a kPush.
  enum class Dest {
    kHome,        // the sequencer node
    kInitiator,   // the message token's operation-initiator
    kExceptHome,  // the paper's except(N+1): all nodes but the sequencer
    kExceptInitiatorAndHome,  // except(k, N+1)
  };

  Kind kind = Kind::kReturn;

  // kPush fields; the pushed token's initiator is forwarded from the input
  // message (which is how the paper's tables use it throughout).
  Dest dest = Dest::kHome;
  MsgType push_type = MsgType::kReadPer;
  ParamPresence push_params = ParamPresence::kNone;
  // The pushed message reserves and carries the next global sequence
  // number (the WTV sequencer's slot-reserving grant).
  bool reserve_version = false;
  // The pushed message carries the machine's current version (e.g. the
  // Firefly completion token).
  bool carry_version = false;

  static Action simple(Kind kind) { return Action{kind, {}, {}, {}}; }
  static Action push(Dest dest, MsgType type, ParamPresence params,
                     bool reserve_version = false,
                     bool carry_version = false) {
    return Action{Kind::kPush, dest, type, params, reserve_version,
                  carry_version};
  }
};

using Routine = std::vector<Action>;

/// delta and lambda packed per (state, input-token-type) cell.
struct TableEntry {
  int next_state = 0;
  Routine routine;
};

/// A complete formal machine description.
class TransitionTable {
 public:
  TransitionTable(std::vector<std::string> state_names, int start_state);

  void add(int state, MsgType input, TableEntry entry);

  /// Looks up delta/lambda; entries the paper marks "error" are absent and
  /// trip a DRSM_CHECK when exercised.
  const TableEntry& at(int state, MsgType input) const;
  bool contains(int state, MsgType input) const;

  int start_state() const { return start_state_; }
  int num_states() const { return static_cast<int>(state_names_.size()); }
  const std::string& state_name(int s) const;

  /// Introspection for the model checker and the drsm_check CLI: the input
  /// token types with a defined transition out of `state`, in MsgType
  /// order.  Everything else is a paper-"error" cell that trips a
  /// DRSM_CHECK when exercised.
  std::vector<MsgType> defined_inputs(int state) const;

  /// Total number of defined (state, input) cells.
  std::size_t num_entries() const { return entries_.size(); }

 private:
  std::vector<std::string> state_names_;
  int start_state_;
  std::map<std::pair<int, MsgType>, TableEntry> entries_;
};

/// Interprets a TransitionTable as a live protocol process.
class TableMachine : public ProtocolMachine {
 public:
  explicit TableMachine(const TransitionTable* table);

  void on_message(MachineContext& ctx, const Message& msg) override;
  std::unique_ptr<ProtocolMachine> clone() const override;
  void visit_fields(FieldCodec& f) override;
  const char* state_name() const override;

  int state() const { return state_; }

 private:
  const TransitionTable* table_;  // not owned; tables are immutable statics
  int state_;
  // User-information part of the copy and the transient pop() stash.
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_write_ = 0;
};

/// The paper's Table 1/2: Write-Through client machine (states INVALID,
/// VALID; start INVALID).
const TransitionTable& write_through_client_table();

/// The paper's Table 3: Write-Through sequencer machine (single state
/// VALID).
const TransitionTable& write_through_sequencer_table();

/// The same formal paradigm applied to the other protocols the tables can
/// express without internal buffering (the paper: "this model serves as a
/// modeling paradigm for other coherence protocols").
const TransitionTable& write_through_v_client_table();
const TransitionTable& write_through_v_sequencer_table();
const TransitionTable& dragon_client_table();
const TransitionTable& dragon_sequencer_table();
const TransitionTable& firefly_client_table();
const TransitionTable& firefly_sequencer_table();

}  // namespace drsm::fsm
