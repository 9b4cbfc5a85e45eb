// Reproduces paper Figure 6: data contention sweep. Three Virginia
// replicas; the total number of attributes in the entity group varies from
// 20 (each 10-op transaction touches 50% of items => heavy contention) to
// 500 (2% => minimal contention). Basic Paxos commits are insensitive to
// contention (it aborts on any log-position collision); Paxos-CP recovers
// nearly all non-conflicting transactions via promotion and combination.
//
// Paper result (shape): basic ~290-295/500 flat across the sweep; CP rises
// from 370/500 at 20 attributes to 494/500 at 500 attributes.
#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig6_contention");
  workload::PrintExperimentHeader(
      "Figure 6 - commits vs data contention (VVV, 500 txns)",
      "basic flat ~290/500; CP 370/500 @20 attrs -> 494/500 @500 attrs");

  bench::Gate gate;
  std::vector<std::vector<std::string>> rows;
  int previous_cp_commits = 0;
  for (int attributes : {20, 50, 100, 200, 500}) {
    const std::string cell = std::to_string(attributes) + " attrs";
    std::vector<workload::RunStats> pair;
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      workload::RunnerConfig config = bench::PaperWorkload(protocol);
      config.workload.num_attributes = attributes;
      const std::string label =
          std::to_string(attributes) + "attrs/" + txn::ProtocolName(protocol);
      workload::RunStats stats =
          perf.Run(label, bench::PaperCluster("VVV"), config);
      gate.CheckRun(label, stats);
      rows.push_back(bench::ResultRow(cell, protocol, stats));
      pair.push_back(std::move(stats));
    }
    gate.CheckCpNotBelowBasic(cell, pair[0], pair[1]);
    // Less contention leaves promotion fewer conflicts to abort on.
    gate.Check(pair[1].committed >= previous_cp_commits,
               cell + ": Paxos-CP commits fell as attributes grew");
    previous_cp_commits = pair[1].committed;
  }
  workload::PrintTable(bench::ResultHeaders("contention"), rows);
  return gate.ExitCode();
}
