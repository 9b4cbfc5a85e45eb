// Reproduces paper Figure 7: the impact of increased concurrency. A single
// YCSB instance on a VVV cluster (100 attributes) raises its target
// throughput; competition for log positions grows with offered load.
//
// Paper result (shape): both protocols commit less as throughput rises;
// Paxos-CP consistently commits more than basic Paxos, and promotions play
// a larger role as the competition for each log position increases.
#include <map>

#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig7_throughput");
  workload::PrintExperimentHeader(
      "Figure 7 - commits vs offered load (VVV, 100 attrs, 500 txns)",
      "both degrade with load; CP consistently above basic; promotions grow "
      "with load");

  bench::Gate gate;
  std::vector<std::vector<std::string>> rows;
  std::map<txn::Protocol, int> commits_at_lower_load;
  for (double aggregate_tps : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const std::string cell =
        workload::FormatDouble(aggregate_tps, 1) + " txn/s";
    std::vector<workload::RunStats> pair;
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      workload::RunnerConfig config = bench::PaperWorkload(protocol);
      config.target_rate_tps = aggregate_tps / config.num_threads;
      config.stagger =
          static_cast<TimeMicros>(1e6 / aggregate_tps);  // even spacing
      const std::string label = workload::FormatDouble(aggregate_tps, 1) +
                                "tps/" + txn::ProtocolName(protocol);
      workload::RunStats stats =
          perf.Run(label, bench::PaperCluster("VVV"), config);
      gate.CheckRun(label, stats);
      if (commits_at_lower_load.count(protocol) > 0) {
        gate.Check(stats.committed <= commits_at_lower_load[protocol],
                   label + ": commits rose with offered load");
      }
      commits_at_lower_load[protocol] = stats.committed;
      rows.push_back(bench::ResultRow(cell, protocol, stats));
      pair.push_back(std::move(stats));
    }
    gate.CheckCpNotBelowBasic(cell, pair[0], pair[1]);
  }
  workload::PrintTable(bench::ResultHeaders("offered load"), rows);
  return gate.ExitCode();
}
