// Reproduces paper Figure 5: commits (a) and average transaction latency
// (b) for different datacenter combinations. V = Virginia (three distinct
// availability zones, ~1.5 ms RTT between them), O = Oregon, C = northern
// California (V-O and V-C ~90 ms, O-C ~20 ms).
//
// Paper result (shape): Virginia-only clusters (VV, VVV) have far lower
// latency than geo-spread ones (OV, COV); the commit improvement of
// Paxos-CP over basic Paxos stays roughly constant across combinations,
// despite the higher latency of geo-spread quorums.
#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig5_clusters");
  workload::PrintExperimentHeader(
      "Figure 5 - commits and latency by datacenter combination (500 txns)",
      "V-only clusters much faster; CP improvement roughly constant across "
      "combinations");

  bench::Gate gate;
  std::vector<std::vector<std::string>> rows;
  for (const std::string code :
       {"VV", "OV", "VVV", "COV", "VVVO", "COVVV"}) {
    std::vector<workload::RunStats> pair;
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      workload::RunnerConfig config = bench::PaperWorkload(protocol);
      const std::string label = code + "/" + txn::ProtocolName(protocol);
      workload::RunStats stats =
          perf.Run(label, bench::PaperCluster(code), config);
      gate.CheckRun(label, stats);
      rows.push_back(bench::ResultRow(code, protocol, stats));
      pair.push_back(std::move(stats));
    }
    gate.CheckCpNotBelowBasic(code, pair[0], pair[1]);
  }
  workload::PrintTable(bench::ResultHeaders("cluster"), rows);
  return gate.ExitCode();
}
