// The benchmark's own correctness checks. They are independent of the
// program's Checker: Capture copies what a finished run produced (every
// replica's log, the replicas' rows, the client-visible outcomes and
// latencies) into RunOutputs, and Verify judges that copy with its own
// merge, decision resolution and serial replay. Because Verify is a pure
// function of RunOutputs, SelfTest can feed it corrupted copies and
// require each check to notice.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/cluster.h"
#include "wal/log_entry.h"
#include "workload/runner.h"
#include "workloads.h"

namespace perfbench {

/// One attribute of a data row as a replica serves it.
struct Cell {
  std::string value;
  paxoscp::TxnId writer = 0;
  paxoscp::LogPos pos = 0;
  bool operator==(const Cell&) const = default;
};
using Row = std::map<std::string, Cell>;
using Log = std::map<paxoscp::LogPos, paxoscp::wal::LogEntry>;

struct RunOutputs {
  std::vector<std::string> groups;
  std::string row;
  int num_dcs = 0;
  /// [group][dc]: that replica's decided entries.
  std::vector<std::vector<Log>> logs;
  /// [group]: the row as loaded at position 0 (read from replica 0).
  std::vector<Row> initial;
  /// [group][dc]: the row at the group's last position, for replicas that
  /// hold every position (nullopt otherwise).
  std::vector<std::vector<std::optional<Row>>> final_rows;
  /// [group][dc][pos]: for positions holding a cross-group prepare, the
  /// replica's row at that position, restricted to the prepared items.
  std::vector<std::vector<std::map<paxoscp::LogPos, Row>>> rows_at;

  std::vector<paxoscp::core::ClientOutcome> outcomes;
  int total_txns = 0;
  int attempted = 0;
  int committed = 0;
  bool all_threads_finished = false;
  bool checker_ok = false;
  int64_t latency_min = 0;
  uint64_t latency_count = 0;
  /// One round trip to a majority of replicas from the clients' home,
  /// less the configured jitter: no commit can be faster.
  paxoscp::TimeMicros quorum_rtt_bound = 0;
};

struct CheckFailure {
  std::string check;  // one of CheckNames()
  std::string detail;
};

/// Every check Verify runs, by the name it reports failures under.
const std::vector<std::string>& CheckNames();

/// Copies a finished run's outputs out of `cluster`. Replicas that hold
/// every position are first caught up (their data rows applied through
/// the last position), which adds row versions: call it after reading the
/// store's counters.
RunOutputs Capture(paxoscp::core::Cluster* cluster, const Workload& workload,
                   const paxoscp::workload::RunStats& stats);

std::vector<CheckFailure> Verify(const RunOutputs& out);

/// Corrupts copies of `clean` (which must verify clean) in every way the
/// checks are meant to catch and returns one line per corruption that went
/// unnoticed by the check aimed at it; empty means every check fired.
/// `covered` receives the names of the checks that fired.
std::vector<std::string> SelfTest(const RunOutputs& clean,
                                  std::vector<std::string>* covered);

}  // namespace perfbench
