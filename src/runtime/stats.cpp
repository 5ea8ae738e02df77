#include "runtime/stats.h"

#include <algorithm>
#include <sstream>

namespace rpqd {

namespace {

void merge_depth_vector(std::vector<std::uint64_t>& into,
                        const std::vector<std::uint64_t>& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

}  // namespace

void RpqStageStats::merge(const RpqStageStats& other) {
  merge_depth_vector(matches_per_depth, other.matches_per_depth);
  merge_depth_vector(eliminated_per_depth, other.eliminated_per_depth);
  merge_depth_vector(duplicated_per_depth, other.duplicated_per_depth);
  index_entries += other.index_entries;
  index_bytes += other.index_bytes;
  index_hot_allocs += other.index_hot_allocs;
  index_duplicate_entries += other.index_duplicate_entries;
  max_depth_observed = std::max(max_depth_observed, other.max_depth_observed);
  if (other.consensus_max_depth) consensus_max_depth = other.consensus_max_depth;
}

std::string RuntimeStats::stage_table() const {
  std::ostringstream out;
  out << "stage | visits   | remote-in | remote-out | note\n";
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& row = stages[s];
    out << 'S' << s << (s < 10 ? "    | " : "   | ");
    char buf[80];
    std::snprintf(buf, sizeof buf, "%-8llu | %-9llu | %-10llu | %s",
                  static_cast<unsigned long long>(row.visits),
                  static_cast<unsigned long long>(row.remote_in),
                  static_cast<unsigned long long>(row.remote_out),
                  row.note.c_str());
    out << buf << '\n';
  }
  return out.str();
}

std::string RuntimeStats::summary() const {
  std::ostringstream out;
  out << "rows=" << output_rows << " elapsed=" << elapsed_ms << "ms"
      << " msgs=" << data_messages << " bytes=" << bytes_sent
      << " contexts=" << contexts_sent << " peak_buffered=" << peak_queued_bytes
      << " blocked=" << flow_blocked << " overflow=" << flow_overflow_used
      << " fast_path=" << flow_fast_path;
  if (contexts_sent > 0) {
    out << " bytes/ctx=" << (bytes_sent / contexts_sent);
  }
  if (faults_delayed + faults_duplicated + faults_dup_dropped + faults_stalls >
      0) {
    out << "\n  faults: delayed=" << faults_delayed
        << " duplicated=" << faults_duplicated
        << " dup_dropped=" << faults_dup_dropped
        << " stalls=" << faults_stalls
        << " outstanding_credits=" << flow_outstanding;
  }
  if (faults_lost + faults_corrupted + retransmits + acks_sent +
          payload_corruptions_detected + dedup_drops >
      0) {
    out << "\n  transport: lost=" << faults_lost
        << " corrupted=" << faults_corrupted
        << " retransmits=" << retransmits << " acks=" << acks_sent
        << " crc_detected=" << payload_corruptions_detected
        << " dedup_drops=" << dedup_drops;
  }
  if (abort_messages + blackholed_messages + epoch_dropped +
          contexts_discarded + retries >
      0) {
    out << "\n  lifecycle: abort_msgs=" << abort_messages
        << " blackholed=" << blackholed_messages
        << " epoch_dropped=" << epoch_dropped
        << " discarded=" << contexts_discarded
        << " peak_live=" << peak_live_contexts << " retries=" << retries;
  }
  if (mirror_fanouts + mirror_expands > 0) {
    out << "\n  balance: mirror_fanouts=" << mirror_fanouts
        << " mirror_expands=" << mirror_expands
        << " imbalance=" << load_imbalance;
  }
  for (std::size_t g = 0; g < rpq.size(); ++g) {
    const auto& r = rpq[g];
    out << "\n  rpq[" << g << "]: matches=" << r.total_matches()
        << " eliminated=" << r.total_eliminated()
        << " duplicated=" << r.total_duplicated()
        << " index_entries=" << r.index_entries << " (" << r.index_bytes
        << "B) max_depth=" << r.max_depth_observed;
    if (r.consensus_max_depth) out << " consensus=" << *r.consensus_max_depth;
  }
  return out.str();
}

}  // namespace rpqd
