#include "sim/sequential.h"

#include <algorithm>

#include "support/error.h"

namespace drsm::sim {

using fsm::Message;
using fsm::MsgType;
using fsm::OpKind;
using fsm::ParamPresence;
using fsm::QueueKind;

/// MachineContext implementation for atomic (run-to-quiescence) execution.
class SequentialRuntime::Context final : public fsm::MachineContext {
 public:
  Context(SequentialRuntime& rt, NodeId self, OpResult& result)
      : rt_(rt), self_(self), result_(result) {}

  NodeId self() const override { return self_; }
  std::size_t num_clients() const override { return rt_.config_.num_clients; }
  const fsm::CostModel& costs() const override { return rt_.config_.costs; }

  void send(NodeId dest, Message msg) override {
    DRSM_CHECK(dest < num_nodes(), "send: destination out of range");
    msg.sender = self_;
    // Messages sent while handling a message inherit its causal span
    // (the machines never stamp spans themselves).
    msg.span = span_;
    std::uint64_t id = 0;
    if (dest != self_) {
      const Cost cost = costs().message_cost(msg.token.params);
      result_.cost += cost;
      ++result_.messages;
      if (rt_.observer_) rt_.observer_(self_, dest, msg);
      if (rt_.sink_ != nullptr) {
        id = ++rt_.msg_seq_;
        obs::TraceEvent event;
        event.time = static_cast<double>(rt_.op_index_);
        event.kind = obs::EventKind::kMsgSend;
        event.node = self_;
        event.peer = dest;
        event.object = msg.token.object;
        event.msg_id = id;
        event.token = msg.token;
        event.value = msg.value;
        event.version = msg.version;
        event.hops = msg.hops;
        event.cost = cost;
        event.span = msg.span;
        rt_.sink_->on_event(event);
      }
    }
    rt_.network_.push_back({dest, msg, id});
  }

  void send_except(std::initializer_list<NodeId> excluded,
                   Message msg) override {
    DRSM_CHECK(std::find(excluded.begin(), excluded.end(), self_) !=
                   excluded.end(),
               "send_except: sender must exclude itself");
    for (NodeId node = 0; node < num_nodes(); ++node) {
      if (std::find(excluded.begin(), excluded.end(), node) !=
          excluded.end())
        continue;
      send(node, msg);
    }
  }

  void return_read(std::uint64_t value, std::uint64_t version) override {
    result_.read_value = value;
    result_.read_version = version;
    result_.read_returned = true;
    if (rt_.tap_ != nullptr)
      rt_.tap_->on_read(static_cast<double>(rt_.op_index_), self_, object_,
                        value, version);
  }

  void complete_write(std::uint64_t /*version*/) override {
    result_.completed = true;
  }

  void complete_op() override { result_.completed = true; }

  void disable_local_queue() override {}
  void enable_local_queue() override {}

  std::uint64_t next_version() override { return ++rt_.version_counter_; }

  void commit_write(std::uint64_t version, std::uint64_t value) override {
    if (rt_.tap_ != nullptr)
      rt_.tap_->on_commit(static_cast<double>(rt_.op_index_), self_, object_,
                          version, value);
  }

  /// Re-targets the context at another node while draining the network.
  void set_self(NodeId self) { self_ = self; }
  void set_object(ObjectId object) { object_ = object; }
  void set_span(std::uint64_t span) { span_ = span; }

 private:
  SequentialRuntime& rt_;
  NodeId self_;
  ObjectId object_ = 0;
  std::uint64_t span_ = 0;  // span of the message being handled
  OpResult& result_;
};

SequentialRuntime::SequentialRuntime(protocols::ProtocolKind kind,
                                     const SystemConfig& config,
                                     std::vector<NodeId> roster)
    : kind_(kind), config_(config), roster_(std::move(roster)) {
  const NodeId home = static_cast<NodeId>(config_.num_clients);
  for (NodeId node : roster_)
    DRSM_CHECK(node < home, "roster must contain client indices only");
  std::sort(roster_.begin(), roster_.end());
  roster_.erase(std::unique(roster_.begin(), roster_.end()), roster_.end());
  roster_.push_back(home);
  machines_.reserve(roster_.size());
  for (NodeId node : roster_)
    machines_.push_back(
        protocols::make_machine(kind_, node, config_.num_clients));
}

SequentialRuntime::SequentialRuntime(const MachineFactory& factory,
                                     const SystemConfig& config,
                                     std::vector<NodeId> roster)
    : kind_(protocols::ProtocolKind::kWriteThrough),
      custom_machines_(true),
      config_(config),
      roster_(std::move(roster)) {
  const NodeId home = static_cast<NodeId>(config_.num_clients);
  for (NodeId node : roster_)
    DRSM_CHECK(node < home, "roster must contain client indices only");
  std::sort(roster_.begin(), roster_.end());
  roster_.erase(std::unique(roster_.begin(), roster_.end()), roster_.end());
  roster_.push_back(home);
  machines_.reserve(roster_.size());
  for (NodeId node : roster_) machines_.push_back(factory(node));
}

SequentialRuntime::SequentialRuntime(const SequentialRuntime& other)
    : kind_(other.kind_),
      custom_machines_(other.custom_machines_),
      config_(other.config_),
      roster_(other.roster_),
      network_(other.network_),
      version_counter_(other.version_counter_),
      latest_value_(other.latest_value_),
      op_index_(other.op_index_),
      msg_seq_(other.msg_seq_),
      span_seq_(other.span_seq_) {
  machines_.reserve(other.machines_.size());
  for (const auto& machine : other.machines_)
    machines_.push_back(machine->clone());
}

SequentialRuntime& SequentialRuntime::operator=(
    const SequentialRuntime& other) {
  if (this == &other) return *this;
  SequentialRuntime copy(other);
  *this = std::move(copy);
  return *this;
}

fsm::ProtocolMachine* SequentialRuntime::machine(NodeId node) {
  const auto it = std::lower_bound(roster_.begin(), roster_.end(), node);
  if (it == roster_.end() || *it != node) return nullptr;
  return machines_[static_cast<std::size_t>(it - roster_.begin())].get();
}

OpResult SequentialRuntime::execute(NodeId node, OpKind op,
                                    std::uint64_t value) {
  DRSM_CHECK(custom_machines_ || protocols::supports(kind_, op),
             std::string("protocol does not support op ") +
                 fsm::to_string(op));
  fsm::ProtocolMachine* target = machine(node);
  DRSM_CHECK(target != nullptr, "operation at a node outside the roster");
  DRSM_CHECK(network_.empty(), "network not quiescent");

  OpResult result;
  Context ctx(*this, node, result);

  Message request;
  switch (op) {
    case OpKind::kRead: request.token.type = MsgType::kReadReq; break;
    case OpKind::kWrite: request.token.type = MsgType::kWriteReq; break;
    case OpKind::kEject: request.token.type = MsgType::kEject; break;
    case OpKind::kSync: request.token.type = MsgType::kSyncReq; break;
  }
  request.token.initiator = node;
  request.token.object = 0;
  request.token.queue = node == ctx.home() ? QueueKind::kDistributed
                                           : QueueKind::kLocal;
  request.token.params = op == OpKind::kWrite ? ParamPresence::kWriteParams
                                              : ParamPresence::kReadParams;
  request.value = value;
  request.sender = node;
  request.span = ++span_seq_;

  if (sink_ != nullptr) {
    obs::TraceEvent event;
    event.time = static_cast<double>(op_index_);
    event.kind = obs::EventKind::kOpIssue;
    event.op = op;
    event.node = node;
    event.span = request.span;
    sink_->on_event(event);
  }
  if (tap_ != nullptr && op == OpKind::kWrite)
    tap_->on_write_issue(static_cast<double>(op_index_), node,
                         request.token.object, value);

  dispatch(ctx, *target, node, request);
  drain(ctx);

  if (sink_ != nullptr) {
    obs::TraceEvent event;
    event.time = static_cast<double>(op_index_ + 1);
    event.kind = obs::EventKind::kOpComplete;
    event.op = op;
    event.node = node;
    event.cost = result.cost;
    event.span = request.span;
    sink_->on_event(event);
  }
  ++op_index_;

  if (op == OpKind::kWrite) latest_value_ = value;
  if (op == OpKind::kRead)
    DRSM_CHECK(result.read_returned, "read did not return data");
  else
    DRSM_CHECK(result.completed, "operation did not complete");
  return result;
}

OpResult SequentialRuntime::migrate(protocols::ProtocolKind to) {
  DRSM_CHECK(!custom_machines_, "migrate: factory-built runtimes are fixed");
  DRSM_CHECK(network_.empty(), "migrate: network not quiescent");
  if (to == kind_) return {};
  kind_ = to;
  machines_.clear();
  for (NodeId node : roster_)
    machines_.push_back(
        protocols::make_machine(kind_, node, config_.num_clients));
  if (version_counter_ == 0) return {};  // never written: nothing to seed

  // Re-commit the latest write under the new protocol, silently: the
  // referees already saw this (value, version) pair sequenced once.
  const std::uint64_t version = version_counter_;
  const std::uint64_t value = latest_value_;
  Observer observer = std::move(observer_);
  obs::EventSink* sink = sink_;
  CoherenceTap* tap = tap_;
  observer_ = nullptr;
  sink_ = nullptr;
  tap_ = nullptr;
  version_counter_ = version - 1;
  const NodeId home = static_cast<NodeId>(config_.num_clients);
  const OpResult seed = execute(home, OpKind::kWrite, value);
  DRSM_CHECK(version_counter_ == version,
             "migrate: seed write drew an unexpected version");
  observer_ = std::move(observer);
  sink_ = sink;
  tap_ = tap;
  return seed;
}

void SequentialRuntime::drain(Context& ctx) {
  while (!network_.empty()) {
    auto [dest, msg, id] = network_.front();
    network_.pop_front();
    if (sink_ != nullptr && id != 0) {
      obs::TraceEvent event;
      event.time = static_cast<double>(op_index_);
      event.kind = obs::EventKind::kMsgRecv;
      event.node = dest;
      event.peer = msg.sender;
      event.object = msg.token.object;
      event.msg_id = id;
      event.token = msg.token;
      event.value = msg.value;
      event.version = msg.version;
      event.hops = msg.hops;
      event.span = msg.span;
      sink_->on_event(event);
    }
    fsm::ProtocolMachine* target = machine(dest);
    if (target == nullptr) continue;  // passive node; cost already charged
    ctx.set_self(dest);
    dispatch(ctx, *target, dest, msg);
  }
}

/// Runs one message through a machine, reporting the copy-state change (if
/// any) to the attached sink.
void SequentialRuntime::dispatch(Context& ctx, fsm::ProtocolMachine& target,
                                 NodeId node, const fsm::Message& msg) {
  ctx.set_object(msg.token.object);
  ctx.set_span(msg.span);
  if (sink_ == nullptr) {
    target.on_message(ctx, msg);
    return;
  }
  const char* before = target.state_name();
  target.on_message(ctx, msg);
  const char* after = target.state_name();
  if (before != after) {
    obs::TraceEvent event;
    event.time = static_cast<double>(op_index_);
    event.kind = obs::EventKind::kStateTransition;
    event.node = node;
    event.object = msg.token.object;
    event.span = msg.span;
    event.detail = before;
    event.detail2 = after;
    sink_->on_event(event);
  }
}

std::vector<std::uint8_t> SequentialRuntime::encode_state() const {
  std::vector<std::uint8_t> out;
  encode_state(out);
  return out;
}

void SequentialRuntime::encode_state(std::vector<std::uint8_t>& out) const {
  out.clear();
  for (const auto& machine : machines_) {
    DRSM_CHECK(machine->quiescent(), "encode_state: machine not quiescent");
    machine->encode(out);
  }
}

void SequentialRuntime::restore_state(const std::vector<std::uint8_t>& key) {
  DRSM_CHECK(network_.empty(), "restore_state: network not quiescent");
  const std::uint8_t* p = key.data();
  const std::uint8_t* end = p + key.size();
  for (const auto& machine : machines_) machine->decode(p, end);
  DRSM_CHECK(p == end, "restore_state: trailing bytes in state key");
}

const char* SequentialRuntime::state_name(NodeId node) const {
  auto* self = const_cast<SequentialRuntime*>(this);
  fsm::ProtocolMachine* target = self->machine(node);
  DRSM_CHECK(target != nullptr, "state_name: node outside the roster");
  return target->state_name();
}

}  // namespace drsm::sim
