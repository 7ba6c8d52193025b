// Distributed Illinois protocol.
//
// Same client state diagram as Synapse (INVALID, VALID, DIRTY) but the
// sequencer "updates all the time the address of the client which has the
// only valid copy" (Appendix A): on a miss that hits a DIRTY copy held
// elsewhere it recalls the copy and serves the requester directly — no NACK
// and no retry round, which is why Illinois is strictly cheaper than
// Synapse.  Additionally, a write to a copy that is still VALID needs no
// data transfer: the sequencer invalidates the other sharers and answers
// with a bare W-GNT token (cost N+1).
//
// The sequencer keeps a per-client valid bit (set on grant, cleared on
// invalidation).  It is authoritative because the sequencer itself
// serializes all grants and invalidations, and it lets a write request be
// answered with or without data depending on whether the requester's copy
// survived the races in flight.
#include "protocols/detail.h"


#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

enum class IllState : std::uint8_t { kInvalid, kValid, kDirty };

class IllinoisClient final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    switch (msg.token.type) {
      case MsgType::kReadReq:
        if (state_ != IllState::kInvalid) {
          ctx.return_read(value_, version_);
        } else {
          ctx.disable_local_queue();
          ctx.send(ctx.home(), make_msg(MsgType::kReadPer, ctx.self(),
                                        msg.token.object,
                                        ParamPresence::kNone));
        }
        break;
      case MsgType::kWriteReq:
        if (state_ == IllState::kDirty) {
          value_ = msg.value;
          version_ = ctx.next_version();
          ctx.commit_write(version_, value_);
          ctx.complete_write(version_);
        } else {
          ctx.disable_local_queue();
          pending_value_ = msg.value;
          ctx.send(ctx.home(), make_msg(MsgType::kWritePer, ctx.self(),
                                        msg.token.object,
                                        ParamPresence::kNone));
        }
        break;
      case MsgType::kReadGnt:
        value_ = msg.value;
        version_ = msg.version;
        state_ = IllState::kValid;
        ctx.return_read(value_, version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kWriteGnt:
        // With user info: full exclusive fetch.  Bare token: our VALID copy
        // is still current, upgrade in place.
        if (msg.token.params == ParamPresence::kUserInfo) {
          value_ = msg.value;
          version_ = msg.version;
        }
        value_ = pending_value_;
        version_ = ctx.next_version();
        state_ = IllState::kDirty;
        ctx.commit_write(version_, value_);
        ctx.complete_write(version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kInval:
        state_ = IllState::kInvalid;
        break;
      case MsgType::kRecallShared:
        DRSM_CHECK(state_ == IllState::kDirty, "ILL: recall of a clean copy");
        ctx.send(ctx.home(),
                 make_msg(MsgType::kFlushData, msg.token.initiator, msg.token.object,
                          ParamPresence::kUserInfo, value_, version_));
        state_ = IllState::kValid;
        break;
      case MsgType::kRecallInval:
        DRSM_CHECK(state_ == IllState::kDirty, "ILL: recall of a clean copy");
        ctx.send(ctx.home(),
                 make_msg(MsgType::kFlushData, msg.token.initiator, msg.token.object,
                          ParamPresence::kUserInfo, value_, version_));
        state_ = IllState::kInvalid;
        break;
      default:
        DRSM_CHECK(false, "ILL client: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<IllinoisClient>(*this);
  }

  void visit_fields(FieldCodec& f) override {
    f.control(state_);
    f.data(value_);
    f.data(version_);
    f.data(pending_value_);
  }

  const char* state_name() const override {
    switch (state_) {
      case IllState::kInvalid: return "INVALID";
      case IllState::kValid: return "VALID";
      case IllState::kDirty: return "DIRTY";
    }
    return "?";
  }

 private:
  IllState state_ = IllState::kInvalid;
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
};

class IllinoisSequencer final : public ProtocolMachine {
 public:
  explicit IllinoisSequencer(std::size_t num_clients)
      : valid_(num_clients, false) {}

  void on_message(MachineContext& ctx, const Message& msg) override {
    if (pending_ != Pending::kNone && msg.token.type != MsgType::kFlushData) {
      deferred_.push_back(msg);
      return;
    }
    switch (msg.token.type) {
      case MsgType::kReadReq:  // own application
        if (owner_ == kNoNode) {
          ctx.return_read(value_, version_);
        } else {
          begin_recall(ctx, Pending::kLocalRead, msg, MsgType::kRecallShared);
        }
        break;
      case MsgType::kWriteReq:  // own application
        if (owner_ == kNoNode) {
          apply_local_write(ctx, msg.value, msg.token.object);
        } else {
          pending_value_ = msg.value;
          begin_recall(ctx, Pending::kLocalWrite, msg, MsgType::kRecallInval);
        }
        break;
      case MsgType::kReadPer:
        if (owner_ == kNoNode) {
          grant_read(ctx, msg.token.initiator, msg.token.object);
        } else {
          begin_recall(ctx, Pending::kServeRead, msg, MsgType::kRecallShared);
        }
        break;
      case MsgType::kWritePer:
        if (owner_ == kNoNode) {
          grant_write(ctx, msg.token.initiator, msg.token.object);
        } else {
          begin_recall(ctx, Pending::kServeWrite, msg, MsgType::kRecallInval);
        }
        break;
      case MsgType::kFlushData: {
        value_ = msg.value;
        version_ = msg.version;
        // RecallShared leaves the old owner with a VALID copy.
        if (recall_kept_copy_) valid_[owner_] = true;
        owner_ = kNoNode;
        finish_recall(ctx);
        break;
      }
      default:
        DRSM_CHECK(false, "ILL sequencer: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<IllinoisSequencer>(*this);
  }

  void visit_fields(FieldCodec& f) override {
    f.node(owner_);
    f.clients(valid_);
    f.transient(pending_);
    f.transient(recall_kept_copy_);
    if (pending_ != Pending::kNone) f.message(pending_msg_);
    f.messages(deferred_);
    f.data(value_);
    f.data(version_);
    f.data(pending_value_);
  }

  bool quiescent() const override {
    return pending_ == Pending::kNone && deferred_.empty();
  }

  const char* state_name() const override {
    return owner_ == kNoNode ? "VALID" : "INVALID";
  }

 private:
  enum class Pending : std::uint8_t {
    kNone,
    kServeRead,
    kServeWrite,
    kLocalRead,
    kLocalWrite,
  };

  void grant_read(MachineContext& ctx, NodeId requester, ObjectId object) {
    ctx.send(requester, make_msg(MsgType::kReadGnt, requester, object,
                                 ParamPresence::kUserInfo, value_, version_));
    valid_[requester] = true;
  }

  void grant_write(MachineContext& ctx, NodeId requester, ObjectId object) {
    const bool requester_valid = valid_[requester];
    for (std::size_t i = 0; i < valid_.size(); ++i) valid_[i] = false;
    ctx.send_except({requester, ctx.home()},
                    make_msg(MsgType::kInval, requester, object,
                             ParamPresence::kNone));
    // A still-valid copy upgrades with a bare token; otherwise ship data.
    ctx.send(requester,
             make_msg(MsgType::kWriteGnt, requester, object,
                      requester_valid ? ParamPresence::kNone
                                      : ParamPresence::kUserInfo,
                      value_, version_));
    owner_ = requester;
  }

  void apply_local_write(MachineContext& ctx, std::uint64_t value,
                         ObjectId object) {
    value_ = value;
    version_ = ctx.next_version();
    ctx.commit_write(version_, value_);
    for (std::size_t i = 0; i < valid_.size(); ++i) valid_[i] = false;
    ctx.send_except({ctx.home()}, make_msg(MsgType::kInval, ctx.self(),
                                           object, ParamPresence::kNone));
    ctx.complete_write(version_);
  }

  void begin_recall(MachineContext& ctx, Pending pending, const Message& msg,
                    MsgType recall) {
    pending_ = pending;
    pending_msg_ = msg;
    recall_kept_copy_ = recall == MsgType::kRecallShared;
    ctx.send(owner_, make_msg(recall, msg.token.initiator, msg.token.object,
                              ParamPresence::kNone));
  }

  void finish_recall(MachineContext& ctx) {
    const Pending pending = pending_;
    const Message msg = pending_msg_;
    pending_ = Pending::kNone;
    switch (pending) {
      case Pending::kServeRead:
        grant_read(ctx, msg.token.initiator, msg.token.object);
        break;
      case Pending::kServeWrite:
        grant_write(ctx, msg.token.initiator, msg.token.object);
        break;
      case Pending::kLocalRead:
        ctx.return_read(value_, version_);
        break;
      case Pending::kLocalWrite:
        apply_local_write(ctx, pending_value_, msg.token.object);
        break;
      case Pending::kNone:
        DRSM_CHECK(false, "ILL: flush without recall");
    }
    std::vector<Message> backlog;
    backlog.swap(deferred_);
    for (const Message& queued : backlog) on_message(ctx, queued);
  }

  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
  NodeId owner_ = kNoNode;
  std::vector<bool> valid_;
  Pending pending_ = Pending::kNone;
  bool recall_kept_copy_ = false;
  Message pending_msg_;
  std::vector<Message> deferred_;
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_illinois(NodeId node,
                                                    std::size_t num_clients) {
  if (node == static_cast<NodeId>(num_clients))
    return std::make_unique<IllinoisSequencer>(num_clients);
  return std::make_unique<IllinoisClient>();
}

}  // namespace drsm::protocols
