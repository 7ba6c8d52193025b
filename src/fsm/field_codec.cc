#include "fsm/field_codec.h"

namespace drsm::fsm {

void FieldCodec::clients(std::vector<bool>& set) {
  if (decoding()) {
    for (std::size_t i = 0; i < set.size(); i += 8) {
      const std::uint8_t bits = take_byte(256);
      for (std::size_t bit = 0; bit < 8 && i + bit < set.size(); ++bit)
        set[i + bit] = ((bits >> bit) & 1) != 0;
    }
    return;
  }
  const std::size_t base = out_->size();
  out_->resize(base + (set.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (!set[i]) continue;
    const NodeId j = view_ == View::kRelabeled
                         ? map_node(static_cast<NodeId>(i))
                         : static_cast<NodeId>(i);
    (*out_)[base + j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
  }
}

void FieldCodec::message(Message& msg) {
  switch (view_) {
    case View::kKey:
      return;
    case View::kKeyDecode:
      msg = Message{};
      return;
    case View::kBehaviour:
    case View::kRelabeled:
      put_byte(msg.token.type);
      node(msg.token.initiator);
      put_word(msg.token.object);
      put_byte(msg.token.params);
      return;
    case View::kSnapshot:
      put_byte(msg.token.type);
      put_word(msg.token.initiator);
      put_word(msg.token.object);
      put_byte(msg.token.queue);
      put_byte(msg.token.params);
      put_word(msg.value);
      put_word(msg.version);
      put_word(msg.hops);
      put_word(msg.sender);
      put_word(msg.span);
      return;
    case View::kSnapshotDecode:
      msg.token.type = static_cast<MsgType>(take_byte(kNumMsgTypes));
      msg.token.initiator = take_word<NodeId>();
      msg.token.object = take_word<ObjectId>();
      msg.token.queue = static_cast<QueueKind>(
          take_byte(static_cast<unsigned>(QueueKind::kDistributed) + 1));
      msg.token.params = static_cast<ParamPresence>(
          take_byte(static_cast<unsigned>(ParamPresence::kUserInfo) + 1));
      msg.value = take_word<std::uint64_t>();
      msg.version = take_word<std::uint64_t>();
      msg.hops = take_word<std::uint32_t>();
      msg.sender = take_word<NodeId>();
      msg.span = take_word<std::uint64_t>();
      return;
  }
}

}  // namespace drsm::fsm
