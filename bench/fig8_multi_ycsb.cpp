// Reproduces paper Figure 8: one YCSB instance per datacenter on a VOC
// cluster, all three updating the same 100-attribute entity group at a
// target rate of one transaction per second each (500 transactions per
// instance).
//
// Paper result (shape): Oregon and California are geographically closer
// (20 ms RTT), so their instances reach a quorum more easily and commit
// slightly more; for every datacenter Paxos-CP commits at least 200% of
// basic Paxos, at the cost of ~100% higher all-rounds latency (~50% for
// the first round).
#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig8_multi_ycsb");
  workload::PrintExperimentHeader(
      "Figure 8 - per-datacenter YCSB instances (VOC, 500 txns each)",
      "O & C commit slightly more (closer quorum); CP >= 2x basic commits "
      "per DC; CP latency ~+100% all rounds, ~+50% first round");

  const char* kDcNames[] = {"V", "O", "C"};
  // The per-datacenter order is a known fidelity gap (ROADMAP.md), so
  // only the checker and thread completion are gated here.
  bench::Gate gate;
  std::vector<std::vector<std::string>> rows;
  for (txn::Protocol protocol :
       {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
    workload::RunnerConfig config = bench::PaperWorkload(protocol);
    // One 500-txn instance per datacenter: 4 threads per DC, each thread at
    // 0.25 txn/s so each instance offers 1 txn/s aggregate.
    config.total_txns = 1500;
    config.num_threads = 12;
    config.target_rate_tps = 0.25;
    config.thread_dcs = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2};
    const std::string label =
        std::string("VOC/") + txn::ProtocolName(protocol);
    workload::RunStats stats =
        perf.Run(label, bench::PaperCluster("VOC"), config);
    gate.CheckRun(label, stats);

    for (DcId dc = 0; dc < 3; ++dc) {
      const int attempted = stats.attempted_by_dc.count(dc)
                                ? stats.attempted_by_dc.at(dc)
                                : 0;
      const int committed = stats.committed_by_dc.count(dc)
                                ? stats.committed_by_dc.at(dc)
                                : 0;
      const double latency_ms =
          stats.latency_by_dc.count(dc)
              ? stats.latency_by_dc.at(dc).Mean() / 1000.0
              : 0;
      rows.push_back({kDcNames[dc], txn::ProtocolName(protocol),
                      std::to_string(committed) + "/" +
                          std::to_string(attempted),
                      workload::FormatDouble(latency_ms, 0) + " ms",
                      workload::CommitsByRound(stats),
                      stats.check.ok ? "OK" : "VIOLATED"});
    }
  }
  workload::PrintTable({"datacenter", "protocol", "commits/attempted",
                        "mean latency", "total by-round", "serializability"},
                       rows);
  return gate.ExitCode();
}
