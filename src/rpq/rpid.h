// Reachability path-ID (rpid) encoding, exactly as §3.5:
//
//   source path id = (machineId, workerId, seqId)  -> one 64-bit word
//                     8 bits     8 bits    48 bits
//   destination id = vertex id                     -> one 64-bit word
//
// Every path is processed by a single worker before entering the RPQ
// stage, so (machineId, workerId, thread-local seq) uniquely identifies
// the source path without any coordination.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace rpqd {

inline constexpr std::uint64_t kRpidSeqMask = (1ULL << 48) - 1;

/// Builds the 64-bit source path id.
constexpr std::uint64_t make_rpid_source(MachineId machine, WorkerId worker,
                                         std::uint64_t seq) {
  return (static_cast<std::uint64_t>(machine) << 56) |
         (static_cast<std::uint64_t>(worker) << 48) | (seq & kRpidSeqMask);
}

constexpr MachineId rpid_machine(std::uint64_t rpid_source) {
  return static_cast<MachineId>(rpid_source >> 56);
}

constexpr WorkerId rpid_worker(std::uint64_t rpid_source) {
  return static_cast<WorkerId>((rpid_source >> 48) & 0xff);
}

constexpr std::uint64_t rpid_seq(std::uint64_t rpid_source) {
  return rpid_source & kRpidSeqMask;
}

}  // namespace rpqd
