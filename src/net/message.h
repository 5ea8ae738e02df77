// Wire format of the simulated cluster fabric.
//
// Everything that crosses machines is a Message: a small POD header plus
// a serialized payload. Data messages batch many execution contexts for
// one (stage, depth); DONE messages return flow-control credits (§3.3);
// termination messages carry the status broadcasts of §3.4.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace rpqd {

enum class MessageType : std::uint8_t {
  kData,         // batched execution contexts
  kDone,         // flow-control credit return
  kTermination,  // termination-protocol status broadcast
  kAbort,        // cooperative-abort broadcast (common/abort.h)
  kAck,          // standalone reliable-delivery ack (DESIGN.md §13)
};

/// MessageHeader::flags bit: the payload's contexts are mirror-expand
/// delegations — each context's vertex is a HOT vertex whose bucket the
/// receiver enumerates locally instead of entering the stage (§14).
inline constexpr std::uint8_t kMessageFlagMirror = 1u << 0;

/// Which flow-control credit a data message consumed; echoed back in the
/// DONE message so the sender releases the right pool (§3.3).
enum class CreditClass : std::uint8_t {
  kFixed,         // per-(stage, machine) preallocated buffer
  kRpqDedicated,  // per-(path stage, machine, depth < D) buffer
  kRpqShared,     // shared pool for depths >= D
  kRpqOverflow,   // livelock-avoidance overflow buffer
};

struct MessageHeader {
  MessageType type = MessageType::kData;
  MachineId src = 0;
  StageId stage = kInvalidStage;  // target stage (kData)
  Depth depth = 0;                // RPQ depth of the batch (kData)
  std::uint32_t count = 0;        // #contexts in the payload (kData)
  CreditClass credit = CreditClass::kFixed;
  Depth credit_depth = 0;  // depth the credit was charged at
  /// Per-message flag bits (kMessageFlag*); 0 for ordinary traffic.
  std::uint8_t flags = 0;
  /// Cluster-unique send sequence number, assigned by Network::send when
  /// a fault plan is active: the transport-dedup identity (a duplicated
  /// message keeps its original seq) and the fault-decision key.
  std::uint64_t seq = 0;
  /// Abort reason carried by kAbort broadcasts (AbortReason as uint8).
  std::uint8_t abort_reason = 0;
  /// Query epoch stamped by Network::send; an inbox drops any message
  /// from a different epoch, so in-flight data of an aborted run can
  /// never seed work in a later one.
  std::uint32_t epoch = 0;
  /// Reliable-delivery fields (DESIGN.md §13), populated only when the
  /// reliability layer is armed (lossy plan or cfg.reliable_transport).
  /// `link_seq` is per-(src, dest) and 1-based; 0 marks an unsequenced
  /// message (kAbort, kAck, and everything on a reliable=off fabric).
  std::uint64_t link_seq = 0;
  /// CRC32 of the payload, verified by the receiving inbox; a mismatch
  /// (injected corruption) drops the copy exactly like a loss.
  std::uint32_t crc = 0;
  /// Piggybacked ack for the *reverse* link (dest -> src): receiver has
  /// every link_seq <= ack_cum, plus bit i of ack_bits set means
  /// ack_cum + 1 + i was received out of order.
  std::uint64_t ack_cum = 0;
  std::uint64_t ack_bits = 0;
};

struct Message {
  MessageHeader header;
  std::vector<std::byte> payload;
};

const char* to_string(CreditClass c);

}  // namespace rpqd
