// Execution contexts and their wire encoding.
//
// A context is the intermediate state of one traversal: the vertex to
// process, the target stage, the RPQ bookkeeping (rpid + depth, §3.5),
// and the context slots materialized so far. Local work keeps contexts on
// the worker's stack; remote hops serialize them into message payloads
// batched per (destination machine, stage, depth) — §3.2 "Messaging".
#pragma once

#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "graph/value.h"

namespace rpqd {

/// Per-buffer codec state for the batched delta encoding. Contexts in
/// one message all target the same (stage, depth) and tend to carry
/// nearby vertex ids and consecutive rpids (same worker, sequential
/// counter), so each context stores the zigzag-varint *difference* from
/// its predecessor in the batch. The state resets with every message:
/// encoder side lives in the outbound buffer, decoder side is fresh per
/// message payload.
struct ContextCodecState {
  VertexId prev_vertex = 0;
  std::uint64_t prev_rpid = 0;
};

/// Appends one context (minus stage/depth, which live in the message
/// header) to a payload under construction.
inline void encode_context(BinaryWriter& w, ContextCodecState& state,
                           VertexId vertex, std::uint64_t rpid,
                           const std::vector<Value>& slots) {
  // Unsigned subtraction wraps mod 2^64; the cast to int64 makes small
  // differences in either direction zigzag to short varints, and the
  // decoder's wrapping add reverses it exactly.
  w.write_varint_signed(static_cast<std::int64_t>(vertex - state.prev_vertex));
  w.write_varint_signed(static_cast<std::int64_t>(rpid - state.prev_rpid));
  state.prev_vertex = vertex;
  state.prev_rpid = rpid;
  for (const Value& v : slots) {
    w.write<std::uint8_t>(static_cast<std::uint8_t>(v.type));
    switch (v.type) {
      case ValueType::kNull:
        break;  // bits are canonically 0
      case ValueType::kBool:
      case ValueType::kString:
        w.write_varint(v.bits);  // 0/1 or a small dictionary id
        break;
      case ValueType::kInt:
        w.write_varint_signed(static_cast<std::int64_t>(v.bits));
        break;
      case ValueType::kDouble:
        w.write<std::uint64_t>(v.bits);  // bit pattern, incompressible
        break;
      case ValueType::kVertex:
        // Bound vertices are usually near the context vertex (earlier
        // hops of the same traversal): delta against it.
        w.write_varint_signed(static_cast<std::int64_t>(v.bits - vertex));
        break;
    }
  }
}

/// Reads one context; `num_slots` comes from the execution plan.
inline void decode_context(BinaryReader& r, ContextCodecState& state,
                           unsigned num_slots, VertexId& vertex,
                           std::uint64_t& rpid, std::vector<Value>& slots) {
  vertex = state.prev_vertex +
           static_cast<std::uint64_t>(r.read_varint_signed());
  rpid = state.prev_rpid + static_cast<std::uint64_t>(r.read_varint_signed());
  state.prev_vertex = vertex;
  state.prev_rpid = rpid;
  slots.resize(num_slots);
  for (unsigned i = 0; i < num_slots; ++i) {
    const auto type = static_cast<ValueType>(r.read<std::uint8_t>());
    slots[i].type = type;
    switch (type) {
      case ValueType::kNull:
        slots[i].bits = 0;
        break;
      case ValueType::kBool:
      case ValueType::kString:
        slots[i].bits = r.read_varint();
        break;
      case ValueType::kInt:
        slots[i].bits = static_cast<std::uint64_t>(r.read_varint_signed());
        break;
      case ValueType::kDouble:
        slots[i].bits = r.read<std::uint64_t>();
        break;
      case ValueType::kVertex:
        slots[i].bits =
            vertex + static_cast<std::uint64_t>(r.read_varint_signed());
        break;
    }
  }
}

}  // namespace rpqd
