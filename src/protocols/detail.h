// Internal helpers shared by the protocol machine implementations.
#pragma once

#include <memory>

#include "fsm/mealy.h"
#include "support/error.h"

namespace drsm::protocols {

/// Per-protocol factory functions (defined in the respective .cc files).
std::unique_ptr<fsm::ProtocolMachine> make_write_through(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_write_through_v(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_write_once(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_synapse(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_illinois(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_berkeley(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_dragon(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_firefly(
    NodeId node, std::size_t num_clients);

namespace detail {

inline fsm::Message make_msg(fsm::MsgType type, NodeId initiator,
                             ObjectId object, fsm::ParamPresence params,
                             std::uint64_t value = 0,
                             std::uint64_t version = 0) {
  fsm::Message msg;
  msg.token.type = type;
  msg.token.initiator = initiator;
  msg.token.object = object;
  msg.token.queue = fsm::QueueKind::kDistributed;
  msg.token.params = params;
  msg.value = value;
  msg.version = version;
  return msg;
}

}  // namespace detail
}  // namespace drsm::protocols
