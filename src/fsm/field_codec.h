// The one codec every protocol machine's state goes through.
//
// A machine declares its state once, in ProtocolMachine::visit_fields, by
// handing each field to a FieldCodec under a tag (control, transient,
// data, node id, client set, buffered message(s), summary).  The codec's
// view decides what that declaration means: the same visit appends the
// quiescent Markov key, decodes it, appends the checker's behaviour key
// with or without a client relabeling, or writes/reads the exact snapshot.
// See fsm/mealy.h for which view sees which tag.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "fsm/token.h"
#include "support/error.h"
#include "support/types.h"

namespace drsm::fsm {

class FieldCodec {
 public:
  /// One view per ProtocolMachine codec method.  The snapshot views come
  /// last: data() tests for them with one comparison.
  enum class View : std::uint8_t {
    kKey,             // encode(): quiescent key of the analytic engine
    kKeyDecode,       // decode()
    kBehaviour,       // encode_full(): the checker's behaviour key
    kRelabeled,       // encode_relabeled(): behaviour key, clients mapped
    kSnapshot,        // encode_state(): every field, exactly
    kSnapshotDecode,  // decode_state()
  };

  /// An encoding view appending to `out`.  kRelabeled sends client id i
  /// to map[i] (num_clients entries); the home node and kNoNode are fixed
  /// points.
  FieldCodec(View view, std::vector<std::uint8_t>& out,
             const NodeId* map = nullptr, std::size_t num_clients = 0)
      : view_(view), out_(&out), map_(map), num_clients_(num_clients) {}

  /// A decoding view reading [p, end) and advancing `p` past what it
  /// consumed.  Running out of bytes or reading an out-of-range control
  /// value throws drsm::Error.
  FieldCodec(View view, const std::uint8_t*& p, const std::uint8_t* end)
      : view_(view), in_(&p), end_(end) {}

  bool decoding() const { return in_ != nullptr; }

  /// Copy state and anything else that selects future transitions and
  /// survives quiescence.  One byte; a decoded value must be below
  /// `limit` (2 for bool).
  template <class T>
  void control(T& v, unsigned limit = kByteLimit<T>) {
    if (decoding())
      v = static_cast<T>(take_byte(limit));
    else
      put_byte(v);
  }

  /// Control state that exists only mid-operation (pending requests,
  /// recall bookkeeping).  Left out of the quiescent key and reset to T{}
  /// by its decode; every other view treats it as control.
  template <class T>
  void transient(T& v) {
    if (view_ == View::kKey) return;
    if (view_ == View::kKeyDecode)
      v = T{};
    else if (decoding())
      v = static_cast<T>(take_byte(kByteLimit<T>));
    else
      put_byte(v);
  }

  /// Values, versions and stashed write parameters: they never select a
  /// transition, so only the exact snapshot carries them.  A key decode
  /// leaves them stale.
  template <class T>
  void data(T& v) {
    static_assert(std::is_unsigned_v<T>, "data fields are unsigned words");
    if (view_ < View::kSnapshot) return;
    if (decoding())
      v = take_word<T>();
    else
      put_word(v);
  }

  /// A NodeId (believed owner, ...): control, relabeled by kRelabeled.
  void node(NodeId& id) {
    if (decoding())
      id = take_word<NodeId>();
    else
      put_word(view_ == View::kRelabeled ? map_node(id) : id);
  }

  /// A per-client flag set indexed by client id: control, packed eight
  /// clients a byte; kRelabeled moves bit i to bit map[i].  Its size is
  /// fixed by the machine's constructor and not encoded.
  void clients(std::vector<bool>& set);

  /// A buffered message (the request a recall serves).  Transient: the
  /// behaviour keys carry its token (type, initiator, object, params) —
  /// kRelabeled maps the initiator — and the snapshot every field.
  void message(Message& msg);

  /// A message queue (a deferred backlog, a channel): a count byte, then
  /// each message as above.  A key decode clears it.
  template <class Queue>
  void messages(Queue& queue) {
    switch (view_) {
      case View::kKey:
        return;
      case View::kKeyDecode:
        queue.clear();
        return;
      case View::kSnapshotDecode:
        queue.resize(take_byte(256));
        break;
      default:
        DRSM_CHECK(queue.size() < 256, "encode: message queue too long");
        put_byte(queue.size());
    }
    for (Message& msg : queue) message(msg);
  }

  /// A value derived from other fields that the keys carry in their
  /// place (e.g. an ack set's size where the set itself is behaviourally
  /// redundant).  The snapshot omits it; a key decode skips it.
  void summary(std::uint8_t v) {
    switch (view_) {
      case View::kKey:
      case View::kBehaviour:
      case View::kRelabeled:
        put_byte(v);
        return;
      case View::kKeyDecode:
        take_byte(256);
        return;
      default:
        return;
    }
  }

 private:
  template <class T>
  static constexpr unsigned kByteLimit = std::is_same_v<T, bool> ? 2 : 256;

  template <class T>
  void put_byte(T v) {
    out_->push_back(static_cast<std::uint8_t>(v));
  }

  std::uint8_t take_byte(unsigned limit) {
    DRSM_CHECK(*in_ < end_, "decode: truncated state key");
    const std::uint8_t b = *(*in_)++;
    DRSM_CHECK(b < limit, "decode: control value out of range");
    return b;
  }

  template <class T>
  void put_word(T v) {
    std::uint8_t bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    out_->insert(out_->end(), bytes, bytes + sizeof(T));
  }

  template <class T>
  T take_word() {
    DRSM_CHECK(static_cast<std::size_t>(end_ - *in_) >= sizeof(T),
               "decode: truncated state key");
    T v = 0;
    for (std::size_t shift = 0; shift < 8 * sizeof(T); shift += 8)
      v |= static_cast<T>(static_cast<T>(*(*in_)++) << shift);
    return v;
  }

  NodeId map_node(NodeId id) const {
    return id < num_clients_ ? map_[id] : id;
  }

  View view_;
  std::vector<std::uint8_t>* out_ = nullptr;
  const std::uint8_t** in_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  const NodeId* map_ = nullptr;
  std::size_t num_clients_ = 0;
};

}  // namespace drsm::fsm
