#include "fsm/table.h"

#include "support/text.h"

namespace drsm::fsm {

TransitionTable::TransitionTable(std::vector<std::string> state_names,
                                 int start_state)
    : state_names_(std::move(state_names)), start_state_(start_state) {
  DRSM_CHECK(!state_names_.empty(), "table needs at least one state");
  DRSM_CHECK(start_state_ >= 0 && start_state_ < num_states(),
             "start state out of range");
}

void TransitionTable::add(int state, MsgType input, TableEntry entry) {
  DRSM_CHECK(state >= 0 && state < num_states(), "state out of range");
  DRSM_CHECK(entry.next_state >= 0 && entry.next_state < num_states(),
             "next state out of range");
  const bool inserted =
      entries_.emplace(std::make_pair(state, input), std::move(entry)).second;
  DRSM_CHECK(inserted, "duplicate table entry");
}

const TableEntry& TransitionTable::at(int state, MsgType input) const {
  auto it = entries_.find({state, input});
  DRSM_CHECK(it != entries_.end(),
             strfmt("protocol error: no transition from state %s on %s",
                    state_name(state).c_str(), to_string(input)));
  return it->second;
}

bool TransitionTable::contains(int state, MsgType input) const {
  return entries_.count({state, input}) != 0;
}

const std::string& TransitionTable::state_name(int s) const {
  DRSM_CHECK(s >= 0 && s < num_states(), "state out of range");
  return state_names_[static_cast<std::size_t>(s)];
}

std::vector<MsgType> TransitionTable::defined_inputs(int state) const {
  DRSM_CHECK(state >= 0 && state < num_states(), "state out of range");
  std::vector<MsgType> inputs;
  for (const auto& [key, entry] : entries_) {
    (void)entry;
    if (key.first == state) inputs.push_back(key.second);
  }
  return inputs;
}

TableMachine::TableMachine(const TransitionTable* table)
    : table_(table), state_(table->start_state()) {}

void TableMachine::on_message(MachineContext& ctx, const Message& msg) {
  const TableEntry& entry = table_->at(state_, msg.token.type);

  for (const Action& action : entry.routine) {
    switch (action.kind) {
      case Action::Kind::kPopRead:
        // Read parameters select what to read; our model reads the whole
        // user-information value, so there is nothing to stash.
        break;
      case Action::Kind::kPopWrite:
        pending_write_ = msg.value;
        break;
      case Action::Kind::kPopUserInfo:
        value_ = msg.value;
        version_ = msg.version;
        break;
      case Action::Kind::kChange:
        value_ = pending_write_;
        version_ = ctx.next_version();
        ctx.commit_write(version_, value_);
        break;
      case Action::Kind::kChangeFromMessage:
        if (msg.version >= version_) {
          value_ = msg.value;
          version_ = msg.version;
        }
        break;
      case Action::Kind::kApplyPendingLocal:
        value_ = pending_write_;
        break;
      case Action::Kind::kApplyPendingWithMsgVersion:
        value_ = pending_write_;
        version_ = msg.version;
        ctx.commit_write(version_, value_);
        break;
      case Action::Kind::kReturn:
        ctx.return_read(value_, version_);
        break;
      case Action::Kind::kDisable:
        ctx.disable_local_queue();
        break;
      case Action::Kind::kEnable:
        ctx.enable_local_queue();
        break;
      case Action::Kind::kCompleteWrite:
        ctx.complete_write(version_);
        break;
      case Action::Kind::kCompleteOp:
        ctx.complete_op();
        break;
      case Action::Kind::kPush: {
        Message out;
        out.token.type = action.push_type;
        out.token.initiator = msg.token.initiator;
        out.token.object = msg.token.object;
        out.token.queue = QueueKind::kDistributed;
        out.token.params = action.push_params;
        if (action.push_params == ParamPresence::kWriteParams) {
          out.value = pending_write_;
          out.version = version_;
        } else if (action.push_params == ParamPresence::kUserInfo) {
          out.value = value_;
          out.version = version_;
        }
        if (action.carry_version) out.version = version_;
        if (action.reserve_version) out.version = ctx.next_version();
        switch (action.dest) {
          case Action::Dest::kHome:
            ctx.send(ctx.home(), out);
            break;
          case Action::Dest::kInitiator:
            ctx.send(msg.token.initiator, out);
            break;
          case Action::Dest::kExceptHome:
            ctx.send_except({ctx.home()}, out);
            break;
          case Action::Dest::kExceptInitiatorAndHome:
            ctx.send_except({msg.token.initiator, ctx.home()}, out);
            break;
        }
        break;
      }
    }
  }
  state_ = entry.next_state;
}

std::unique_ptr<ProtocolMachine> TableMachine::clone() const {
  return std::make_unique<TableMachine>(*this);
}

void TableMachine::visit_fields(FieldCodec& f) {
  f.control(state_, static_cast<unsigned>(table_->num_states()));
  f.data(value_);
  f.data(version_);
  f.data(pending_write_);
}

const char* TableMachine::state_name() const {
  return table_->state_name(state_).c_str();
}

// ---------------------------------------------------------------------------
// Write-Through formal tables (the paper's Tables 1-3 and Figure 1).
// Client states: 0 = INVALID (start), 1 = VALID.
// ---------------------------------------------------------------------------

const TransitionTable& write_through_client_table() {
  static const TransitionTable table = [] {
    TransitionTable t({"INVALID", "VALID"}, /*start_state=*/0);
    using K = Action::Kind;
    using D = Action::Dest;
    const int kInvalid = 0, kValid = 1;

    // Read request on a VALID copy: executed locally (trace tr1).
    t.add(kValid, MsgType::kReadReq,
          {kValid,
           {Action::simple(K::kPopRead), Action::simple(K::kReturn)}});

    // Read request on an INVALID copy: ask the sequencer and block further
    // local requests (trace tr2, first half).
    t.add(kInvalid, MsgType::kReadReq,
          {kInvalid,
           {Action::simple(K::kPopRead), Action::simple(K::kDisable),
            Action::push(D::kHome, MsgType::kReadPer,
                         ParamPresence::kNone)}});

    // Grant: install the user information, answer the application, resume
    // (trace tr2, second half).
    t.add(kInvalid, MsgType::kReadGnt,
          {kValid,
           {Action::simple(K::kPopUserInfo), Action::simple(K::kReturn),
            Action::simple(K::kEnable)}});

    // Write request (traces tr3/tr4): forward the write parameters to the
    // sequencer; the local copy is not updated and becomes INVALID.
    for (int s : {kInvalid, kValid}) {
      t.add(s, MsgType::kWriteReq,
            {kInvalid,
             {Action::simple(K::kPopWrite),
              Action::push(D::kHome, MsgType::kWritePer,
                           ParamPresence::kWriteParams),
              Action::simple(K::kCompleteWrite)}});
    }

    // Invalidation from the sequencer.
    t.add(kValid, MsgType::kInval, {kInvalid, {}});
    t.add(kInvalid, MsgType::kInval, {kInvalid, {}});
    return t;
  }();
  return table;
}

const TransitionTable& write_through_sequencer_table() {
  static const TransitionTable table = [] {
    TransitionTable t({"VALID"}, /*start_state=*/0);
    using K = Action::Kind;
    using D = Action::Dest;
    const int kValid = 0;

    // Own application's read: local (trace tr5).
    t.add(kValid, MsgType::kReadReq,
          {kValid,
           {Action::simple(K::kPopRead), Action::simple(K::kReturn)}});

    // Own application's write: update the master copy, invalidate every
    // client (trace tr6, cost N).
    t.add(kValid, MsgType::kWriteReq,
          {kValid,
           {Action::simple(K::kPopWrite), Action::simple(K::kChange),
            Action::push(D::kExceptHome, MsgType::kInval,
                         ParamPresence::kNone),
            Action::simple(K::kCompleteWrite)}});

    // Client read permission: grant with the user information (cost S+1).
    t.add(kValid, MsgType::kReadPer,
          {kValid,
           {Action::push(D::kInitiator, MsgType::kReadGnt,
                         ParamPresence::kUserInfo)}});

    // Client write: apply the parameters, invalidate the other N-1 clients.
    t.add(kValid, MsgType::kWritePer,
          {kValid,
           {Action::simple(K::kPopWrite), Action::simple(K::kChange),
            Action::push(D::kExceptInitiatorAndHome, MsgType::kInval,
                         ParamPresence::kNone)}});
    return t;
  }();
  return table;
}

// ---------------------------------------------------------------------------
// Write-Through-V: two-phase write (slot grant, then parameter transfer);
// the writer's copy stays VALID.  Client states: 0 = INVALID, 1 = VALID.
// ---------------------------------------------------------------------------

const TransitionTable& write_through_v_client_table() {
  static const TransitionTable table = [] {
    TransitionTable t({"INVALID", "VALID"}, /*start_state=*/0);
    using K = Action::Kind;
    using D = Action::Dest;
    const int kInvalid = 0, kValid = 1;

    t.add(kValid, MsgType::kReadReq,
          {kValid,
           {Action::simple(K::kPopRead), Action::simple(K::kReturn)}});
    t.add(kInvalid, MsgType::kReadReq,
          {kInvalid,
           {Action::simple(K::kPopRead), Action::simple(K::kDisable),
            Action::push(D::kHome, MsgType::kReadPer,
                         ParamPresence::kNone)}});
    t.add(kInvalid, MsgType::kReadGnt,
          {kValid,
           {Action::simple(K::kPopUserInfo), Action::simple(K::kReturn),
            Action::simple(K::kEnable)}});

    // Phase 1: ask for a write slot (both states).
    for (int s : {kInvalid, kValid}) {
      t.add(s, MsgType::kWriteReq,
            {s,
             {Action::simple(K::kPopWrite), Action::simple(K::kDisable),
              Action::push(D::kHome, MsgType::kWritePer,
                           ParamPresence::kNone)}});
      // Phase 2: the grant carries the reserved sequence number; apply
      // locally and transfer the parameters.
      t.add(s, MsgType::kWriteGnt,
            {kValid,
             {Action::simple(K::kApplyPendingWithMsgVersion),
              Action::push(D::kHome, MsgType::kWriteData,
                           ParamPresence::kWriteParams),
              Action::simple(K::kCompleteWrite),
              Action::simple(K::kEnable)}});
      t.add(s, MsgType::kInval, {kInvalid, {}});
      t.add(s, MsgType::kEject,
            {kInvalid, {Action::simple(K::kCompleteOp)}});
      t.add(s, MsgType::kSyncReq,
            {s,
             {Action::simple(K::kDisable),
              Action::push(D::kHome, MsgType::kSyncReq,
                           ParamPresence::kNone)}});
      t.add(s, MsgType::kSyncAck,
            {s,
             {Action::simple(K::kCompleteOp), Action::simple(K::kEnable)}});
    }
    return t;
  }();
  return table;
}

const TransitionTable& write_through_v_sequencer_table() {
  static const TransitionTable table = [] {
    TransitionTable t({"VALID"}, /*start_state=*/0);
    using K = Action::Kind;
    using D = Action::Dest;
    const int kValid = 0;

    t.add(kValid, MsgType::kReadReq,
          {kValid,
           {Action::simple(K::kPopRead), Action::simple(K::kReturn)}});
    t.add(kValid, MsgType::kWriteReq,
          {kValid,
           {Action::simple(K::kPopWrite), Action::simple(K::kChange),
            Action::push(D::kExceptHome, MsgType::kInval,
                         ParamPresence::kNone),
            Action::simple(K::kCompleteWrite)}});
    t.add(kValid, MsgType::kReadPer,
          {kValid,
           {Action::push(D::kInitiator, MsgType::kReadGnt,
                         ParamPresence::kUserInfo)}});
    // Reserve the next sequence slot and grant it.
    t.add(kValid, MsgType::kWritePer,
          {kValid,
           {Action::push(D::kInitiator, MsgType::kWriteGnt,
                         ParamPresence::kNone,
                         /*reserve_version=*/true)}});
    // The parameter transfer: apply with the reserved number, invalidate
    // the other N-1 clients.
    t.add(kValid, MsgType::kWriteData,
          {kValid,
           {Action::simple(K::kChangeFromMessage),
            Action::push(D::kExceptInitiatorAndHome, MsgType::kInval,
                         ParamPresence::kNone)}});
    t.add(kValid, MsgType::kSyncReq,
          {kValid,
           {Action::push(D::kInitiator, MsgType::kSyncAck,
                         ParamPresence::kNone)}});
    return t;
  }();
  return table;
}

// ---------------------------------------------------------------------------
// Dragon: write-update, fire-and-forget.  Single states.
// ---------------------------------------------------------------------------

const TransitionTable& dragon_client_table() {
  static const TransitionTable table = [] {
    TransitionTable t({"SHARED-CLEAN"}, /*start_state=*/0);
    using K = Action::Kind;
    using D = Action::Dest;

    t.add(0, MsgType::kReadReq,
          {0, {Action::simple(K::kPopRead), Action::simple(K::kReturn)}});
    t.add(0, MsgType::kWriteReq,
          {0,
           {Action::simple(K::kPopWrite),
            Action::simple(K::kApplyPendingLocal),
            Action::push(D::kHome, MsgType::kUpdate,
                         ParamPresence::kWriteParams),
            Action::simple(K::kCompleteWrite)}});
    t.add(0, MsgType::kUpdate,
          {0, {Action::simple(K::kChangeFromMessage)}});
    return t;
  }();
  return table;
}

const TransitionTable& dragon_sequencer_table() {
  static const TransitionTable table = [] {
    TransitionTable t({"SHARED-DIRTY"}, /*start_state=*/0);
    using K = Action::Kind;
    using D = Action::Dest;

    t.add(0, MsgType::kReadReq,
          {0, {Action::simple(K::kPopRead), Action::simple(K::kReturn)}});
    t.add(0, MsgType::kWriteReq,
          {0,
           {Action::simple(K::kPopWrite), Action::simple(K::kChange),
            Action::push(D::kExceptHome, MsgType::kUpdate,
                         ParamPresence::kWriteParams),
            Action::simple(K::kCompleteWrite)}});
    // A client's write: sequence it and rebroadcast to everyone else.
    t.add(0, MsgType::kUpdate,
          {0,
           {Action::simple(K::kPopWrite), Action::simple(K::kChange),
            Action::push(D::kExceptInitiatorAndHome, MsgType::kUpdate,
                         ParamPresence::kWriteParams)}});
    return t;
  }();
  return table;
}

// ---------------------------------------------------------------------------
// Firefly: write-update with a blocking completion token.
// ---------------------------------------------------------------------------

const TransitionTable& firefly_client_table() {
  static const TransitionTable table = [] {
    TransitionTable t({"SHARED"}, /*start_state=*/0);
    using K = Action::Kind;
    using D = Action::Dest;

    t.add(0, MsgType::kReadReq,
          {0, {Action::simple(K::kPopRead), Action::simple(K::kReturn)}});
    t.add(0, MsgType::kWriteReq,
          {0,
           {Action::simple(K::kPopWrite), Action::simple(K::kDisable),
            Action::push(D::kHome, MsgType::kUpdate,
                         ParamPresence::kWriteParams)}});
    t.add(0, MsgType::kAck,
          {0,
           {Action::simple(K::kApplyPendingWithMsgVersion),
            Action::simple(K::kCompleteWrite),
            Action::simple(K::kEnable)}});
    t.add(0, MsgType::kUpdate,
          {0, {Action::simple(K::kChangeFromMessage)}});
    return t;
  }();
  return table;
}

const TransitionTable& firefly_sequencer_table() {
  static const TransitionTable table = [] {
    TransitionTable t({"VALID"}, /*start_state=*/0);
    using K = Action::Kind;
    using D = Action::Dest;

    t.add(0, MsgType::kReadReq,
          {0, {Action::simple(K::kPopRead), Action::simple(K::kReturn)}});
    t.add(0, MsgType::kWriteReq,
          {0,
           {Action::simple(K::kPopWrite), Action::simple(K::kChange),
            Action::push(D::kExceptHome, MsgType::kUpdate,
                         ParamPresence::kWriteParams),
            Action::simple(K::kCompleteWrite)}});
    t.add(0, MsgType::kUpdate,
          {0,
           {Action::simple(K::kPopWrite), Action::simple(K::kChange),
            Action::push(D::kExceptInitiatorAndHome, MsgType::kUpdate,
                         ParamPresence::kWriteParams),
            Action::push(D::kInitiator, MsgType::kAck,
                         ParamPresence::kNone, /*reserve_version=*/false,
                         /*carry_version=*/true)}});
    return t;
  }();
  return table;
}

}  // namespace drsm::fsm
