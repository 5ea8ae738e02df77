#include "common/abort.h"

namespace rpqd {

const char* to_string(AbortReason reason) {
  switch (reason) {
    case AbortReason::kNone: return "none";
    case AbortReason::kUserCancel: return "user-cancel";
    case AbortReason::kDeadline: return "deadline";
    case AbortReason::kContextBudget: return "context-budget";
    case AbortReason::kReachIndexBudget: return "reach-index-budget";
    case AbortReason::kCreditStarvation: return "credit-starvation";
    case AbortReason::kMachineFailure: return "machine-failure";
    case AbortReason::kDepthTruncated: return "depth-truncated";
    case AbortReason::kAdmissionReject: return "admission-reject";
  }
  return "?";
}

bool abort_reason_retryable(AbortReason reason) {
  switch (reason) {
    case AbortReason::kMachineFailure:
    case AbortReason::kContextBudget:
    case AbortReason::kCreditStarvation:
    // A queue-full admission reject is load-dependent: by the time a
    // retry resubmits, in-flight queries have drained. (A budget-based
    // reject is deterministic, but it is reported before any run burns
    // resources, so the blanket retryable answer is still safe.)
    case AbortReason::kAdmissionReject:
      return true;
    default:
      return false;
  }
}

}  // namespace rpqd
