#include "workloads.h"

#include <algorithm>

namespace perfbench {

namespace pc = paxoscp;

namespace {

// Outage schedule of `outage-basic`: dc2 is down for kOutageLength out of
// every kOutagePeriod of virtual time, starting kOutageOffset into each
// period. The availability window divides both, so every window lies
// wholly inside or wholly outside an outage.
constexpr pc::TimeMicros kOutagePeriod = 200 * pc::kSecond;
constexpr pc::TimeMicros kOutageOffset = 100 * pc::kSecond;
constexpr pc::TimeMicros kOutageLength = 40 * pc::kSecond;
constexpr pc::TimeMicros kWindow = 20 * pc::kSecond;
constexpr pc::DcId kOutageVictim = 2;

/// SplitMix64 finaliser: spreads consecutive user seeds over the whole
/// 64-bit space so the cluster and workload streams share no structure.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The paper's client mix (§6): four open-loop clients at 1 txn/s each,
/// starts staggered by 250 ms, 10 ops per txn, 50% reads, uniform
/// attribute choice.
pc::workload::RunnerConfig PaperRunner(pc::txn::Protocol protocol,
                                       uint64_t seed, int total_txns) {
  pc::workload::RunnerConfig config;
  config.workload.num_attributes = 100;
  config.workload.ops_per_txn = 10;
  config.workload.read_fraction = 0.5;
  config.total_txns = total_txns;
  config.num_threads = 4;
  config.stagger = 250 * pc::kMillisecond;
  config.target_rate_tps = 1.0;
  config.client.protocol = protocol;
  config.client_dc = 0;
  config.seed = Mix(seed);
  return config;
}

pc::core::ClusterConfig MakeCluster(const std::string& code, uint64_t seed) {
  pc::core::ClusterConfig config = *pc::core::ClusterConfig::FromCode(code);
  config.seed = Mix(seed ^ 0x5bd1e995ULL);
  return config;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"paper-cp", "cross-2pc",
                                                  "outage-basic"};
  return kNames;
}

std::vector<std::string> GroupNames(const Workload& workload) {
  const pc::workload::WorkloadConfig& config = workload.runner.workload;
  std::vector<std::string> names;
  for (int g = 0; g < std::max(config.num_groups, 1); ++g) {
    names.push_back(pc::workload::Generator::GroupName(config, g));
  }
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, int total_txns,
                  Workload* out) {
  Workload w;
  if (name == "paper-cp") {
    w.cluster = MakeCluster("VVVOC", seed);
    w.runner = PaperRunner(pc::txn::Protocol::kPaxosCP, seed,
                           total_txns > 0 ? total_txns : 5000);
  } else if (name == "cross-2pc") {
    w.cluster = MakeCluster("VVV", seed);
    w.runner = PaperRunner(pc::txn::Protocol::kPaxosCP, seed,
                           total_txns > 0 ? total_txns : 4000);
    w.runner.workload.num_groups = 4;
    w.runner.workload.num_attributes = 60;
    w.runner.workload.cross_fraction = 0.75;
    w.runner.workload.groups_per_cross_txn = 2;
  } else if (name == "outage-basic") {
    w.cluster = MakeCluster("VVV", seed);
    w.runner = PaperRunner(pc::txn::Protocol::kBasicPaxos, seed,
                           total_txns > 0 ? total_txns : 8000);
    w.runner.availability_window = kWindow;
    // Outages cover the arrival schedule only; the last event is always a
    // heal, so the post-run catch-up sees every replica up.
    const pc::workload::RunnerConfig& r = w.runner;
    const int per_thread = (r.total_txns + r.num_threads - 1) / r.num_threads;
    const pc::TimeMicros arrivals_end =
        r.stagger * (r.num_threads - 1) +
        static_cast<pc::TimeMicros>(per_thread / r.target_rate_tps) *
            pc::kSecond;
    for (pc::TimeMicros start = kOutageOffset; start < arrivals_end;
         start += kOutagePeriod) {
      w.faults.events.push_back({start, pc::fault::FaultKind::kDatacenterDown,
                                 kOutageVictim, pc::kNoDc, 0, 0});
      w.faults.events.push_back({start + kOutageLength,
                                 pc::fault::FaultKind::kDatacenterUp,
                                 kOutageVictim, pc::kNoDc, 0, 0});
      w.outages.emplace_back(start, start + kOutageLength);
    }
    w.faults.Normalize();
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
