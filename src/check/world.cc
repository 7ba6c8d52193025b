#include "check/world.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "fsm/field_codec.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/text.h"

namespace drsm::check {
namespace {

using fsm::Message;
using fsm::MsgType;
using fsm::OpKind;
using fsm::ParamPresence;
using fsm::QueueKind;

/// MachineContext over a World: sends queue into the channels, completions
/// update the pending bookkeeping, and every oracle-relevant callback is
/// checked on the spot.
class Ctx final : public fsm::MachineContext {
 public:
  Ctx(World& w, NodeId self, std::size_t capacity, StepOutcome& out)
      : w_(w), self_(self), capacity_(capacity), out_(out) {}

  NodeId self() const override { return self_; }
  std::size_t num_clients() const override { return w_.num_nodes() - 1; }
  const fsm::CostModel& costs() const override {
    static const fsm::CostModel kCosts;
    return kCosts;
  }

  void send(NodeId dest, Message msg) override {
    if (dest >= w_.num_nodes()) {
      out_.violate("defined-transition",
                   strfmt("node %u sent to out-of-range node %u", self_,
                          dest));
      return;
    }
    msg.sender = self_;
    auto& channel = w_.channels[self_ * w_.num_nodes() + dest];
    if (channel.size() >= capacity_) {
      out_.truncated = true;
      return;
    }
    channel.push_back(msg);
  }

  void send_except(std::initializer_list<NodeId> excluded,
                   Message msg) override {
    for (NodeId node = 0; node < w_.num_nodes(); ++node) {
      bool skip = false;
      for (NodeId ex : excluded) skip = skip || ex == node;
      if (!skip) send(node, msg);
    }
  }

  void return_read(std::uint64_t value, std::uint64_t version) override {
    out_.read_returned = true;
    out_.read_value = value;
    out_.read_version = version;
    if (self_ < num_clients()) {
      if (w_.pending[self_] ==
          static_cast<std::uint8_t>(OpKind::kRead) + 1) {
        w_.pending[self_] = 0;
      } else {
        out_.violate("defined-transition",
                     strfmt("node %u returned read data with no read "
                            "pending",
                            self_));
      }
    }
    check_read(value, version);
  }

  void complete_write(std::uint64_t version) override {
    (void)version;
    complete(OpKind::kWrite);
  }

  void complete_op() override {
    if (self_ < num_clients() && w_.pending[self_] != 0)
      w_.pending[self_] = 0;
  }

  void disable_local_queue() override { w_.disabled[self_] = 1; }
  void enable_local_queue() override { w_.disabled[self_] = 0; }

  std::uint64_t next_version() override { return ++w_.version_counter; }

  void commit_write(std::uint64_t version, std::uint64_t value) override {
    if (version == 0 || version > w_.version_counter) {
      out_.violate("serialization",
                   strfmt("node %u committed version %llu outside the "
                          "drawn sequence (counter %llu)",
                          self_, static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(
                              w_.version_counter)));
      return;
    }
    if (w_.issued.find(value) == w_.issued.end()) {
      out_.violate("serialization",
                   strfmt("version %llu committed value %llu that no "
                          "client issued",
                          static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(value)));
      return;
    }
    const auto [it, inserted] = w_.commit_log.emplace(version, value);
    if (!inserted && it->second != value) {
      out_.violate("serialization",
                   strfmt("version %llu rebound: value %llu then %llu",
                          static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(it->second),
                          static_cast<unsigned long long>(value)));
      return;
    }
    if (version > w_.latest_version) {
      w_.latest_version = version;
      w_.latest_value = value;
    }
  }

 private:
  void complete(OpKind op) {
    if (self_ >= num_clients()) return;
    if (w_.pending[self_] == static_cast<std::uint8_t>(op) + 1)
      w_.pending[self_] = 0;
    else
      out_.violate("defined-transition",
                   strfmt("node %u completed a %s with no such operation "
                          "pending",
                          self_, fsm::to_string(op)));
  }

  /// The kConcurrent oracle rules (see check/oracle.h): a read may be
  /// stale mid-flight, but must return a serialized (version, value) pair
  /// — or the node's own issued write — and per-node versions never go
  /// backwards.
  void check_read(std::uint64_t value, std::uint64_t version) {
    const auto own = w_.issued.find(value);
    const bool own_write = own != w_.issued.end() && own->second == self_;
    if (version == 0) {
      if (value != 0 && !own_write)
        out_.violate("read-oracle",
                     strfmt("node %u read unserialized value %llu", self_,
                            static_cast<unsigned long long>(value)));
    } else {
      const auto it = w_.commit_log.find(version);
      if (it == w_.commit_log.end()) {
        if (!own_write)
          out_.violate("read-oracle",
                       strfmt("node %u read never-serialized version %llu",
                              self_,
                              static_cast<unsigned long long>(version)));
      } else if (it->second != value && !own_write) {
        out_.violate("read-oracle",
                     strfmt("node %u read (value %llu, version %llu) but "
                            "that version serialized value %llu",
                            self_, static_cast<unsigned long long>(value),
                            static_cast<unsigned long long>(version),
                            static_cast<unsigned long long>(it->second)));
      }
    }
    std::uint64_t& last = w_.last_read_version[self_];
    if (version < last && !own_write)
      out_.violate("read-oracle",
                   strfmt("node %u read version %llu after version %llu",
                          self_, static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(last)));
    if (version > last) last = version;
  }

  World& w_;
  NodeId self_;
  std::size_t capacity_;
  StepOutcome& out_;
};

Message make_request(NodeId client, OpKind op, std::uint64_t value) {
  Message request;
  switch (op) {
    case OpKind::kRead: request.token.type = MsgType::kReadReq; break;
    case OpKind::kWrite: request.token.type = MsgType::kWriteReq; break;
    case OpKind::kEject: request.token.type = MsgType::kEject; break;
    case OpKind::kSync: request.token.type = MsgType::kSyncReq; break;
  }
  request.token.initiator = client;
  request.token.object = 0;
  request.token.queue = QueueKind::kLocal;
  request.token.params = op == OpKind::kWrite ? ParamPresence::kWriteParams
                                              : ParamPresence::kReadParams;
  request.value = value;
  request.sender = client;
  return request;
}

void run_machine(World& w, NodeId node, const Message& msg,
                 std::size_t capacity, StepOutcome& out) {
  Ctx ctx(w, node, capacity, out);
  try {
    w.machines[node]->on_message(ctx, msg);
  } catch (const drsm::Error& error) {
    // A DRSM_CHECK firing inside a machine is the protocol saying "no
    // transition defined for this (state, token) pair".
    out.violate("defined-transition", error.what());
  }
}

/// MachineContext for the POR purity dry run: any callback at all marks
/// the delivery impure.  next_version reports what the real run would
/// draw but still disqualifies (it advances global state).
class PurityCtx final : public fsm::MachineContext {
 public:
  PurityCtx(NodeId self, std::size_t num_clients,
            std::uint64_t version_counter)
      : self_(self), num_clients_(num_clients), counter_(version_counter) {}

  bool impure() const { return impure_; }

  NodeId self() const override { return self_; }
  std::size_t num_clients() const override { return num_clients_; }
  const fsm::CostModel& costs() const override {
    static const fsm::CostModel kCosts;
    return kCosts;
  }
  void send(NodeId, Message) override { impure_ = true; }
  void send_except(std::initializer_list<NodeId>, Message) override {
    impure_ = true;
  }
  void return_read(std::uint64_t, std::uint64_t) override { impure_ = true; }
  void complete_write(std::uint64_t) override { impure_ = true; }
  void complete_op() override { impure_ = true; }
  void disable_local_queue() override { impure_ = true; }
  void enable_local_queue() override { impure_ = true; }
  std::uint64_t next_version() override {
    impure_ = true;
    return counter_ + 1;
  }
  void commit_write(std::uint64_t, std::uint64_t) override {
    impure_ = true;
  }

 private:
  NodeId self_;
  std::size_t num_clients_;
  std::uint64_t counter_;
  bool impure_ = false;
};

}  // namespace

World World::clone() const {
  World w;
  w.machines.reserve(machines.size());
  for (const auto& m : machines) w.machines.push_back(m->clone());
  w.channels = channels;
  w.reads_left = reads_left;
  w.writes_left = writes_left;
  w.pending = pending;
  w.disabled = disabled;
  w.version_counter = version_counter;
  w.issue_counter = issue_counter;
  w.commit_log = commit_log;
  w.issued = issued;
  w.latest_version = latest_version;
  w.latest_value = latest_value;
  w.last_read_version = last_read_version;
  return w;
}

World make_initial_world(const CheckConfig& cfg) {
  const std::size_t nodes = cfg.num_clients + 1;
  World init;
  init.machines.reserve(nodes);
  for (NodeId node = 0; node < nodes; ++node)
    init.machines.push_back(
        cfg.machine_factory
            ? cfg.machine_factory(node)
            : protocols::make_machine(cfg.protocol, node, cfg.num_clients));
  init.channels.resize(nodes * nodes);
  init.reads_left.assign(cfg.num_clients,
                         static_cast<std::uint8_t>(cfg.reads_per_client));
  init.writes_left.assign(cfg.num_clients,
                          static_cast<std::uint8_t>(cfg.writes_per_client));
  init.pending.assign(cfg.num_clients, 0);
  init.disabled.assign(nodes, 0);
  init.last_read_version.assign(nodes, 0);
  return init;
}

void apply_issue(World& w, NodeId client, OpKind op, std::size_t capacity,
                 StepOutcome& out, Message& request_out) {
  std::uint64_t value = 0;
  if (op == OpKind::kWrite) {
    value = ++w.issue_counter;
    w.issued.emplace(value, client);
    --w.writes_left[client];
  } else {
    --w.reads_left[client];
  }
  w.pending[client] = static_cast<std::uint8_t>(op) + 1;
  request_out = make_request(client, op, value);
  run_machine(w, client, request_out, capacity, out);
}

void apply_deliver(World& w, NodeId src, NodeId dst, std::size_t capacity,
                   StepOutcome& out, Message& msg_out) {
  auto& channel = w.channels[src * w.num_nodes() + dst];
  msg_out = channel.front();
  channel.pop_front();
  run_machine(w, dst, msg_out, capacity, out);
}

std::vector<std::vector<NodeId>> client_permutations(
    std::size_t num_clients) {
  std::vector<NodeId> perm(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c)
    perm[c] = static_cast<NodeId>(c);
  std::vector<std::vector<NodeId>> all;
  do {
    all.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return all;  // next_permutation from sorted start yields identity first
}

void encode_key(const World& w, std::vector<std::uint8_t>& key) {
  key.clear();
  for (const auto& machine : w.machines) machine->encode_full(key);
  for (const auto& channel : w.channels) {
    key.push_back(static_cast<std::uint8_t>(channel.size()));
    for (const Message& msg : channel) {
      key.push_back(static_cast<std::uint8_t>(msg.token.type));
      key.push_back(static_cast<std::uint8_t>(msg.token.initiator));
      key.push_back(static_cast<std::uint8_t>(msg.token.object));
      key.push_back(static_cast<std::uint8_t>(msg.token.params));
    }
  }
  const std::size_t clients = w.num_nodes() - 1;
  for (std::size_t c = 0; c < clients; ++c) {
    key.push_back(w.pending[c]);
    key.push_back(w.reads_left[c]);
    key.push_back(w.writes_left[c]);
  }
  for (std::size_t n = 0; n < w.num_nodes(); ++n)
    key.push_back(w.disabled[n]);
}

bool encode_key_relabeled(const World& w, const NodeId* map,
                          std::vector<std::uint8_t>& key) {
  const std::size_t nodes = w.num_nodes();
  const std::size_t clients = nodes - 1;
  // Extend to a full-node map (home is a fixed point) and invert it, so
  // every section below can be emitted in *new*-id order.
  NodeId full[256];
  NodeId inv[256];
  for (std::size_t n = 0; n < nodes; ++n)
    full[n] = n < clients ? map[n] : static_cast<NodeId>(n);
  for (std::size_t n = 0; n < nodes; ++n) inv[full[n]] = static_cast<NodeId>(n);

  key.clear();
  for (std::size_t j = 0; j < nodes; ++j)
    w.machines[inv[j]]->encode_relabeled(key, map, clients);
  for (std::size_t new_src = 0; new_src < nodes; ++new_src) {
    for (std::size_t new_dst = 0; new_dst < nodes; ++new_dst) {
      const auto& channel = w.channels[inv[new_src] * nodes + inv[new_dst]];
      key.push_back(static_cast<std::uint8_t>(channel.size()));
      for (const Message& msg : channel) {
        // sender is implied by the channel (Ctx::send stamps sender =
        // source node), and values/versions/hops never select a
        // transition — same exclusions as encode_key.
        key.push_back(static_cast<std::uint8_t>(msg.token.type));
        key.push_back(static_cast<std::uint8_t>(
            msg.token.initiator < clients ? map[msg.token.initiator]
                                          : msg.token.initiator));
        key.push_back(static_cast<std::uint8_t>(msg.token.object));
        key.push_back(static_cast<std::uint8_t>(msg.token.params));
      }
    }
  }
  for (std::size_t c = 0; c < clients; ++c) {
    const NodeId old = inv[c];
    key.push_back(w.pending[old]);
    key.push_back(w.reads_left[old]);
    key.push_back(w.writes_left[old]);
  }
  for (std::size_t n = 0; n < nodes; ++n) key.push_back(w.disabled[inv[n]]);
  return true;
}

CanonicalHash canonical_hash(const World& w,
                             const std::vector<std::vector<NodeId>>& perms,
                             std::vector<std::uint8_t>& scratch) {
  CanonicalHash result;
  std::uint64_t identity_hash = 0;
  for (std::size_t i = 0; i < perms.size(); ++i) {
    encode_key_relabeled(w, perms[i].data(), scratch);
    const std::uint64_t h = hash_bytes(scratch.data(), scratch.size());
    if (i == 0) {
      identity_hash = h;
      result.hash = h;
    } else if (h < result.hash) {
      result.hash = h;
    }
  }
  result.nontrivial = result.hash != identity_hash;
  return result;
}

namespace {

/// Writes or reads a hashed map, sorted so equal Worlds give equal bytes.
template <class Map>
void visit_map(fsm::FieldCodec& f, Map& map) {
  auto size = static_cast<std::uint32_t>(map.size());
  f.data(size);
  if (f.decoding()) {
    map.clear();
    for (std::uint32_t i = 0; i < size; ++i) {
      typename Map::key_type key = 0;
      typename Map::mapped_type value = 0;
      f.data(key);
      f.data(value);
      map.emplace(key, value);
    }
    return;
  }
  std::map<typename Map::key_type, typename Map::mapped_type> sorted(
      map.begin(), map.end());
  for (const auto& entry : sorted) {
    typename Map::key_type key = entry.first;
    typename Map::mapped_type value = entry.second;
    f.data(key);
    f.data(value);
  }
}

/// Everything of a World after its machines, in snapshot order.
void visit_world(fsm::FieldCodec& f, World& w) {
  for (auto& channel : w.channels) f.messages(channel);
  for (std::size_t c = 0; c < w.num_clients(); ++c) {
    f.data(w.pending[c]);
    f.data(w.reads_left[c]);
    f.data(w.writes_left[c]);
  }
  for (std::uint8_t& disabled : w.disabled) f.data(disabled);
  for (std::uint64_t& version : w.last_read_version) f.data(version);
  f.data(w.version_counter);
  f.data(w.issue_counter);
  f.data(w.latest_version);
  f.data(w.latest_value);
  visit_map(f, w.commit_log);
  visit_map(f, w.issued);
}

}  // namespace

void serialize_world(const World& w, std::vector<std::uint8_t>& out) {
  out.clear();
  for (const auto& machine : w.machines) machine->encode_state(out);
  fsm::FieldCodec f(fsm::FieldCodec::View::kSnapshot, out);
  visit_world(f, const_cast<World&>(w));  // the snapshot view only reads
}

bool deserialize_world(const CheckConfig& cfg, const std::uint8_t* p,
                       const std::uint8_t* end, World& out) {
  out = make_initial_world(cfg);
  for (auto& machine : out.machines) machine->decode_state(p, end);
  fsm::FieldCodec f(fsm::FieldCodec::View::kSnapshotDecode, p, end);
  visit_world(f, out);
  DRSM_CHECK(p == end, "deserialize_world: trailing bytes");
  return true;
}

bool channels_empty(const World& w) {
  for (const auto& channel : w.channels)
    if (!channel.empty()) return false;
  return true;
}

bool any_pending(const World& w) {
  for (std::size_t c = 0; c + 1 < w.num_nodes(); ++c)
    if (w.pending[c] != 0) return true;
  return false;
}

bool fully_spent(const World& w) {
  for (std::size_t c = 0; c + 1 < w.num_nodes(); ++c)
    if (w.reads_left[c] != 0 || w.writes_left[c] != 0) return false;
  return true;
}

const char* check_state(const World& w, const CheckConfig& cfg,
                        std::string& detail) {
  if (cfg.check_exclusivity) {
    NodeId first_owner = kNoNode;
    for (NodeId node = 0; node < w.num_nodes(); ++node) {
      const auto cls = protocols::classify_state(
          cfg.protocol, w.machines[node]->state_name());
      if (cls != protocols::CopyClass::kExclusive) continue;
      if (first_owner == kNoNode) {
        first_owner = node;
      } else {
        detail = strfmt("nodes %u (%s) and %u (%s) both hold exclusive "
                        "copies",
                        first_owner,
                        w.machines[first_owner]->state_name(), node,
                        w.machines[node]->state_name());
        return "exclusivity";
      }
    }
  }
  if (!channels_empty(w)) return nullptr;
  for (std::size_t c = 0; c + 1 < w.num_nodes(); ++c) {
    if (w.pending[c] != 0) {
      detail = strfmt("client %zu has a pending %s but no message is in "
                      "flight anywhere",
                      c,
                      fsm::to_string(static_cast<fsm::OpKind>(
                          w.pending[c] - 1)));
      return "deadlock";
    }
  }
  for (std::size_t n = 0; n < w.num_nodes(); ++n) {
    if (w.disabled[n] != 0) {
      detail = strfmt("node %zu left its local queue disabled at "
                      "quiescence",
                      n);
      return "stuck-disable";
    }
  }
  if (fully_spent(w)) {
    for (std::uint64_t v = 1; v <= w.version_counter; ++v) {
      if (w.commit_log.find(v) == w.commit_log.end()) {
        detail = strfmt("terminal state: drawn version %llu was never "
                        "bound to a value",
                        static_cast<unsigned long long>(v));
        return "serialization";
      }
    }
    std::unordered_set<std::uint64_t> committed;
    for (const auto& [version, value] : w.commit_log)
      committed.insert(value);
    for (const auto& [value, writer] : w.issued) {
      if (committed.find(value) == committed.end()) {
        detail = strfmt("terminal state: client %u's write (value %llu) "
                        "was never serialized",
                        writer, static_cast<unsigned long long>(value));
        return "serialization";
      }
    }
  }
  return nullptr;
}

const char* probe_read(const World& quiescent, NodeId client,
                       const CheckConfig& cfg, std::string& detail) {
  const std::size_t capacity = cfg.channel_capacity;
  World w = quiescent.clone();
  StepOutcome out;
  Message request;
  ++w.reads_left[client];  // apply_issue debits one read
  apply_issue(w, client, OpKind::kRead, capacity, out, request);
  std::size_t steps = 0;
  while (out.invariant == nullptr) {
    bool delivered = false;
    for (std::size_t src = 0; src < w.num_nodes() && !delivered; ++src) {
      for (std::size_t dst = 0; dst < w.num_nodes() && !delivered; ++dst) {
        if (w.channels[src * w.num_nodes() + dst].empty()) continue;
        Message msg;
        apply_deliver(w, static_cast<NodeId>(src), static_cast<NodeId>(dst),
                      capacity, out, msg);
        delivered = true;
      }
    }
    if (!delivered) break;
    if (++steps > 10000) {
      detail = strfmt("read probe at client %u did not converge within "
                      "10000 deliveries",
                      client);
      return "read-probe";
    }
  }
  if (out.invariant != nullptr) {
    detail = strfmt("read probe at client %u: %s", client,
                    out.detail.c_str());
    return out.invariant;
  }
  if (!out.read_returned) {
    detail = strfmt("read probe at client %u never returned data", client);
    return "read-probe";
  }
  if (protocols::convergence_level(cfg.protocol) ==
      protocols::ConvergenceLevel::kWriterMayLag) {
    for (const auto& [value, writer] : quiescent.issued)
      if (writer == client) return nullptr;  // lagging writer: consistency
                                             // was checked per delivery
  }
  const auto own = quiescent.issued.find(out.read_value);
  const bool own_write =
      own != quiescent.issued.end() && own->second == client;
  if (out.read_value != quiescent.latest_value) {
    detail = strfmt("read probe at client %u returned value %llu, latest "
                    "serialized write is %llu (version %llu)",
                    client,
                    static_cast<unsigned long long>(out.read_value),
                    static_cast<unsigned long long>(quiescent.latest_value),
                    static_cast<unsigned long long>(
                        quiescent.latest_version));
    return "read-probe";
  }
  if (out.read_version != quiescent.latest_version && !own_write) {
    detail = strfmt("read probe at client %u returned version %llu, "
                    "latest is %llu",
                    client,
                    static_cast<unsigned long long>(out.read_version),
                    static_cast<unsigned long long>(
                        quiescent.latest_version));
    return "read-probe";
  }
  return nullptr;
}

bool pure_absorption(const World& w, NodeId src, NodeId dst) {
  const auto& channel = w.channels[src * w.num_nodes() + dst];
  DRSM_CHECK(!channel.empty(), "pure_absorption on an empty channel");
  const Message& msg = channel.front();
  // Only no-op-prone message kinds are worth the dry run: a redundant
  // invalidation (copy already invalid, or the owner invalidating itself)
  // or a stale/duplicate update.  Everything else always reacts.
  if (msg.token.type != MsgType::kInval &&
      msg.token.type != MsgType::kUpdate)
    return false;
  std::vector<std::uint8_t> before;
  w.machines[dst]->encode_state(before);
  auto probe = w.machines[dst]->clone();
  PurityCtx ctx(dst, w.num_clients(), w.version_counter);
  try {
    probe->on_message(ctx, msg);
  } catch (const drsm::Error&) {
    return false;  // defined-transition violation: the real run must see it
  }
  if (ctx.impure()) return false;
  std::vector<std::uint8_t> after;
  probe->encode_state(after);
  return before == after;
}

}  // namespace drsm::check
