// Reproduces paper Figure 4: commit count (a) and commit latency (b) as
// the number of replica datacenters grows from 2 to 5, drawing nodes from
// the paper's deployment order (V, V, V, O, C).
//
// Paper result (shape): basic Paxos commits 284-292/500 regardless of
// replica count; Paxos-CP totals 434-445/500, also insensitive to replica
// count, with first-round commits below the basic total (promoted
// transactions win out over some first-round transactions). Latency grows
// mildly with replica count; each promotion round adds latency.
#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig4_replicas");
  workload::PrintExperimentHeader(
      "Figure 4 - commits and latency vs number of replicas (500 txns)",
      "basic ~284-292/500 flat; CP ~434-445/500 flat; latency grows mildly "
      "with replicas; promotion rounds stack latency");

  bench::Gate gate;
  std::vector<std::vector<std::string>> rows;
  for (const std::string code : {"VV", "VVV", "VVVO", "VVVOC"}) {
    std::vector<workload::RunStats> pair;
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      workload::RunnerConfig config = bench::PaperWorkload(protocol);
      const std::string label = code + "/" + txn::ProtocolName(protocol);
      workload::RunStats stats =
          perf.Run(label, bench::PaperCluster(code), config);
      gate.CheckRun(label, stats);
      rows.push_back(bench::ResultRow(
          std::to_string(code.size()) + " (" + code + ")", protocol, stats));
      pair.push_back(std::move(stats));
    }
    gate.CheckCpNotBelowBasic(code, pair[0], pair[1]);
  }
  workload::PrintTable(bench::ResultHeaders("replicas"), rows);

  std::printf(
      "\nLatency by promotion round (Paxos-CP, committed txns, mean ms):\n");
  std::vector<std::vector<std::string>> latency_rows;
  for (const std::string code : {"VV", "VVV", "VVVO", "VVVOC"}) {
    workload::RunnerConfig config =
        bench::PaperWorkload(txn::Protocol::kPaxosCP);
    workload::RunStats stats =
        perf.Run(code + "/cp-latency", bench::PaperCluster(code), config);
    gate.CheckRun(code + "/cp-latency", stats);
    latency_rows.push_back(
        {code, workload::LatencyByRound(stats, 6),
         workload::CommitsByRound(stats)});
  }
  workload::PrintTable({"cluster", "latency r0/r1/r2/...", "commits by round"},
                       latency_rows);
  return gate.ExitCode();
}
