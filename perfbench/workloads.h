// The benchmark's three workloads (README.md explains why each exists).
// A workload is a pure function of its name and seed: the cluster layout,
// the runner configuration and the fault plan all derive from them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "fault/fault_plan.h"
#include "workload/runner.h"

namespace perfbench {

struct Workload {
  paxoscp::core::ClusterConfig cluster;
  paxoscp::workload::RunnerConfig runner;
  paxoscp::fault::FaultPlan faults;  // empty: no faults
  /// Half-open [start, end) outage windows of virtual time since run start
  /// (empty without faults); transactions started inside one count as
  /// outage transactions.
  std::vector<std::pair<paxoscp::TimeMicros, paxoscp::TimeMicros>> outages;
};

/// Names accepted by MakeWorkload, in README order.
const std::vector<std::string>& WorkloadNames();

/// The workload's entity-group names, as RunExperiment names them.
std::vector<std::string> GroupNames(const Workload& workload);

/// Builds workload `name` from `seed`. `total_txns` > 0 overrides the
/// workload's own length (the self-test runs short copies). Returns false
/// for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, int total_txns,
                  Workload* out);

}  // namespace perfbench
