// Profile/stats reconciliation shared by every suite that profiles a
// run: the profile tree and the per-machine counters must add up to the
// query's RuntimeStats exactly — dropped or double-counted attributions
// show up here, under any fault schedule.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "common/counters.h"
#include "runtime/engine.h"

namespace rpqd {

/// Checks a profiled result:
///   - the MachineCounters fold over profile.machines equals the stats'
///     machine group field by field, and each machine's `contexts`
///     equals stats.machine_contexts[m] (aborted runs included);
///   - on runs that finished normally, the tree's totals equal the
///     fabric counters (every context, message and byte sent was
///     received) and each stage's visits and remote_out equal the
///     EXPLAIN ANALYZE row. An aborted run's tree stops at the abort, so
///     it need not match the fabric.
inline void expect_reconciled(const QueryResult& r, const std::string& where) {
  const QueryProfile& p = r.profile;
  ASSERT_TRUE(p.enabled) << where;
  ASSERT_EQ(p.machines.size(), r.stats.machine_contexts.size()) << where;
  MachineCounters fold;
  for (std::size_t m = 0; m < p.machines.size(); ++m) {
    fold += p.machines[m];
    EXPECT_EQ(p.machines[m].contexts, r.stats.machine_contexts[m])
        << "machine " << m << "; " << where;
  }
  const MachineCounters& stats = r.stats;
  for (const auto& f : kMachineCounterFields) {
    EXPECT_EQ(fold.*f.member, stats.*f.member)
        << "profile machines fold != stats." << f.name << "; " << where;
  }
  if (r.aborted) return;
  const ProfileDepthRow all = p.totals();
  EXPECT_EQ(all.ctx_sent, r.stats.contexts_sent) << where;
  EXPECT_EQ(all.ctx_received, r.stats.contexts_sent) << where;
  EXPECT_EQ(all.msgs_sent, r.stats.data_messages) << where;
  EXPECT_EQ(all.msgs_received, r.stats.data_messages) << where;
  EXPECT_EQ(all.bytes_sent, r.stats.bytes_sent) << where;
  EXPECT_EQ(all.contexts, r.stats.contexts) << where;
  ASSERT_EQ(p.stages.size(), r.stats.stages.size()) << where;
  for (std::size_t s = 0; s < p.stages.size(); ++s) {
    EXPECT_EQ(p.stages[s].total.contexts, r.stats.stages[s].visits)
        << "stage " << s << "; " << where;
    EXPECT_EQ(p.stages[s].total.ctx_sent, r.stats.stages[s].remote_out)
        << "stage " << s << "; " << where;
  }
}

}  // namespace rpqd
