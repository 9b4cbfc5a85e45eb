#include "verify.h"

#include <algorithm>
#include <set>
#include <utility>

#include "wal/log.h"

namespace perfbench {

namespace pc = paxoscp;
using pc::LogPos;
using pc::TxnId;
using pc::wal::LogEntry;
using pc::wal::RecordKind;
using pc::wal::TxnRecord;

namespace {

constexpr char kProgramChecker[] = "program_checker";
constexpr char kReplicaAgreement[] = "replica_agreement";
constexpr char kCommittedCount[] = "committed_count";
constexpr char kSerialReplay[] = "serial_replay";
constexpr char kCrossAtomicity[] = "cross_atomicity";
constexpr char kMajorityDurable[] = "majority_durable";
constexpr char kLatencyBound[] = "latency_bound";

Row ToRow(const std::vector<std::pair<std::string, pc::wal::ItemRead>>& read) {
  Row row;
  for (const auto& [attribute, item] : read) {
    row[attribute] = Cell{item.value, item.writer, item.written_pos};
  }
  return row;
}

class Failures {
 public:
  void Add(const char* check, std::string detail) {
    // The first few details per check are plenty to debug from.
    if (++per_check_[check] <= 3) list_.push_back({check, std::move(detail)});
  }
  std::vector<CheckFailure> Take() { return std::move(list_); }

 private:
  std::map<std::string, int> per_check_;
  std::vector<CheckFailure> list_;
};

size_t GroupIndex(const RunOutputs& out, const std::string& group) {
  if (group.empty()) return 0;
  auto it = std::find(out.groups.begin(), out.groups.end(), group);
  return it == out.groups.end() ? out.groups.size()
                                : static_cast<size_t>(it - out.groups.begin());
}

/// Canonical fate of a cross-group transaction: the first decide record,
/// in position then list order, in its commit group's merged log.
enum class Fate { kUndecided, kCommit, kAbort };

/// A record of the merged log and the position it sits at.
struct Placed {
  LogPos pos = 0;
  const TxnRecord* record = nullptr;
};

struct Merged {
  /// [group]: the union of the replicas' logs (replica agreement is
  /// checked separately, so any copy stands for all).
  std::vector<std::map<LogPos, const LogEntry*>> logs;
  /// [group]: every prepare record by transaction, and the first decide
  /// record (position, then list order) by transaction.
  std::vector<std::map<TxnId, std::vector<Placed>>> prepares;
  std::vector<std::map<TxnId, Placed>> first_decides;
  std::map<TxnId, std::vector<std::string>> participants;
  std::map<TxnId, Fate> fates;
};

Merged MergeLogs(const RunOutputs& out, Failures* failures) {
  Merged m;
  m.logs.resize(out.groups.size());
  for (size_t g = 0; g < out.groups.size(); ++g) {
    std::map<LogPos, uint64_t> fingerprints;
    for (int dc = 0; dc < out.num_dcs; ++dc) {
      for (const auto& [pos, entry] : out.logs[g][dc]) {
        const uint64_t fp = entry.Fingerprint();
        auto [it, fresh] = fingerprints.emplace(pos, fp);
        if (fresh) {
          m.logs[g][pos] = &entry;
        } else if (it->second != fp) {
          failures->Add(kReplicaAgreement,
                        out.groups[g] + " position " + std::to_string(pos) +
                            ": replica dc" + std::to_string(dc) +
                            " holds a different entry");
        }
      }
    }
    LogPos expect = 1;
    for (const auto& [pos, entry] : m.logs[g]) {
      if (pos != expect) {
        failures->Add(kReplicaAgreement,
                      out.groups[g] + ": no replica holds position " +
                          std::to_string(expect));
        break;
      }
      ++expect;
    }
  }
  m.prepares.resize(out.groups.size());
  m.first_decides.resize(out.groups.size());
  for (size_t g = 0; g < out.groups.size(); ++g) {
    for (const auto& [pos, entry] : m.logs[g]) {
      for (const TxnRecord& t : entry->txns) {
        if (t.kind == RecordKind::kPrepare) {
          m.prepares[g][t.id].push_back({pos, &t});
          if (!t.participants.empty()) {
            m.participants.emplace(t.id, t.participants);
          }
        } else if (t.kind == RecordKind::kDecide) {
          m.first_decides[g].emplace(t.id, Placed{pos, &t});
        }
      }
    }
  }
  for (const auto& [id, parts] : m.participants) {
    Fate fate = Fate::kUndecided;
    const size_t g = GroupIndex(out, parts.front());
    if (g < out.groups.size()) {
      auto decide = m.first_decides[g].find(id);
      if (decide != m.first_decides[g].end()) {
        fate = decide->second.record->commit_decision ? Fate::kCommit
                                                      : Fate::kAbort;
      }
    }
    m.fates[id] = fate;
  }
  return m;
}

bool Effective(const Merged& m, const TxnRecord& t) {
  if (t.kind == RecordKind::kData) return true;
  if (t.kind == RecordKind::kDecide) return false;
  auto it = m.fates.find(t.id);
  return it != m.fates.end() && it->second == Fate::kCommit;
}

void CheckCommitted(const RunOutputs& out, const Merged& m,
                    Failures* failures) {
  // Total one: committed records found in the merged logs.
  std::set<TxnId> in_log;
  int log_committed = 0;
  for (const auto& log : m.logs) {
    for (const auto& [pos, entry] : log) {
      for (const TxnRecord& t : entry->txns) {
        if (t.kind != RecordKind::kData) continue;
        ++log_committed;
        in_log.insert(t.id);
      }
    }
  }
  for (const auto& [id, fate] : m.fates) {
    if (fate != Fate::kCommit) continue;
    ++log_committed;
    in_log.insert(id);
  }
  // Total two: what the clients were told.
  int client_committed = 0;
  for (const pc::core::ClientOutcome& o : out.outcomes) {
    if (o.read_only) continue;
    if (o.committed) {
      ++client_committed;
      if (!o.groups.empty()) {
        if (in_log.count(o.id) == 0) {
          failures->Add(kCommittedCount, "cross txn " + std::to_string(o.id) +
                                             " acknowledged but not "
                                             "committed in the logs");
        }
        continue;
      }
      const size_t g = GroupIndex(out, o.group);
      const LogEntry* entry = nullptr;
      if (g < m.logs.size()) {
        auto it = m.logs[g].find(o.position);
        if (it != m.logs[g].end()) entry = it->second;
      }
      if (entry == nullptr ||
          !entry->ContainsRecord(o.id, RecordKind::kData)) {
        failures->Add(kCommittedCount,
                      "txn " + std::to_string(o.id) +
                          " acknowledged at position " +
                          std::to_string(o.position) + " but not found there");
      }
    } else if (!o.unknown && in_log.count(o.id) != 0) {
      failures->Add(kCommittedCount, "txn " + std::to_string(o.id) +
                                         " reported aborted but committed "
                                         "in the logs");
    }
  }
  if (log_committed != out.committed || client_committed != out.committed) {
    failures->Add(kCommittedCount,
                  "committed: stats " + std::to_string(out.committed) +
                      ", client outcomes " + std::to_string(client_committed) +
                      ", merged logs " + std::to_string(log_committed));
  }
}

void CheckReplay(const RunOutputs& out, const Merged& m, Failures* failures) {
  for (size_t g = 0; g < out.groups.size(); ++g) {
    Row state = out.initial[g];
    for (const auto& [pos, entry] : m.logs[g]) {
      for (const TxnRecord& t : entry->txns) {
        if (!Effective(m, t)) continue;
        for (const pc::wal::ReadRecord& r : t.reads) {
          if (r.item.attribute == pc::wal::kWholeRowAttribute) continue;
          auto it = state.find(r.item.attribute);
          const TxnId writer = it == state.end() ? 0 : it->second.writer;
          const LogPos written = it == state.end() ? 0 : it->second.pos;
          if (writer != r.observed_writer || written != r.observed_pos) {
            failures->Add(kSerialReplay,
                          out.groups[g] + " position " + std::to_string(pos) +
                              ": txn " + std::to_string(t.id) + " read " +
                              r.item.attribute + " from txn " +
                              std::to_string(r.observed_writer) +
                              ", serial order says txn " +
                              std::to_string(writer));
          }
        }
        for (const pc::wal::WriteRecord& w : t.writes) {
          state[w.item.attribute] = Cell{w.value, t.id, pos};
        }
      }
    }
    int caught_up = 0;
    for (int dc = 0; dc < out.num_dcs; ++dc) {
      const std::optional<Row>& row = out.final_rows[g][dc];
      if (!row) continue;
      ++caught_up;
      if (*row != state) {
        failures->Add(kSerialReplay, out.groups[g] + " dc" +
                                         std::to_string(dc) +
                                         ": final row differs from the "
                                         "serial replay");
      }
    }
    if (caught_up <= out.num_dcs / 2) {
      failures->Add(kSerialReplay, out.groups[g] + ": only " +
                                       std::to_string(caught_up) +
                                       " replicas hold the whole log");
    }
  }
}

void CheckCross(const RunOutputs& out, const Merged& m, Failures* failures) {
  for (const auto& [id, fate] : m.fates) {
    if (fate == Fate::kUndecided) {
      failures->Add(kCrossAtomicity, "cross txn " + std::to_string(id) +
                                         " prepared but never decided");
    }
    if (fate != Fate::kCommit) continue;
    for (const std::string& group : m.participants.at(id)) {
      const size_t g = GroupIndex(out, group);
      if (g >= out.groups.size()) {
        failures->Add(kCrossAtomicity, "cross txn " + std::to_string(id) +
                                           " names unknown group " + group);
        continue;
      }
      auto found = m.prepares[g].find(id);
      const size_t prepares =
          found == m.prepares[g].end() ? 0 : found->second.size();
      if (prepares != 1) {
        failures->Add(kCrossAtomicity,
                      "committed cross txn " + std::to_string(id) + " has " +
                          std::to_string(prepares) + " prepares in " + group);
        continue;
      }
      const LogPos prepare_pos = found->second.front().pos;
      const TxnRecord* prepare = found->second.front().record;
      // Its writes must have reached every replica's row in this group.
      std::map<std::string, std::string> written;
      for (const pc::wal::WriteRecord& w : prepare->writes) {
        written[w.item.attribute] = w.value;
      }
      for (int dc = 0; dc < out.num_dcs; ++dc) {
        if (!out.final_rows[g][dc]) continue;
        auto at = out.rows_at[g][dc].find(prepare_pos);
        for (const auto& [attribute, value] : written) {
          const Cell* cell = nullptr;
          if (at != out.rows_at[g][dc].end()) {
            auto c = at->second.find(attribute);
            if (c != at->second.end()) cell = &c->second;
          }
          if (cell == nullptr || cell->value != value || cell->writer != id) {
            failures->Add(kCrossAtomicity,
                          "committed cross txn " + std::to_string(id) +
                              ": write of " + attribute + " missing from " +
                              group + " dc" + std::to_string(dc));
          }
        }
      }
    }
  }
}

void CheckDurable(const RunOutputs& out, Failures* failures) {
  for (const pc::core::ClientOutcome& o : out.outcomes) {
    if (!o.committed || o.read_only || !o.groups.empty()) continue;
    const size_t g = GroupIndex(out, o.group);
    if (g >= out.groups.size()) continue;  // reported by CheckCommitted
    int holders = 0;
    for (int dc = 0; dc < out.num_dcs; ++dc) {
      auto it = out.logs[g][dc].find(o.position);
      if (it != out.logs[g][dc].end() &&
          it->second.ContainsRecord(o.id, RecordKind::kData)) {
        ++holders;
      }
    }
    if (holders <= out.num_dcs / 2) {
      failures->Add(kMajorityDurable, "acknowledged txn " +
                                          std::to_string(o.id) + " is in " +
                                          std::to_string(holders) + " of " +
                                          std::to_string(out.num_dcs) +
                                          " replicas' logs");
    }
  }
}

}  // namespace

const std::vector<std::string>& CheckNames() {
  static const std::vector<std::string> kNames = {
      kProgramChecker, kReplicaAgreement, kCommittedCount, kSerialReplay,
      kCrossAtomicity, kMajorityDurable,  kLatencyBound};
  return kNames;
}

RunOutputs Capture(pc::core::Cluster* cluster, const Workload& workload,
                   const pc::workload::RunStats& stats) {
  RunOutputs out;
  const pc::workload::RunnerConfig& runner = workload.runner;
  out.groups = GroupNames(workload);
  out.row = runner.workload.row;
  out.num_dcs = cluster->num_datacenters();
  out.logs.resize(out.groups.size());
  out.final_rows.resize(out.groups.size());
  out.rows_at.resize(out.groups.size());
  for (size_t g = 0; g < out.groups.size(); ++g) {
    const std::string& group = out.groups[g];
    LogPos last = 0;
    for (int dc = 0; dc < out.num_dcs; ++dc) {
      out.logs[g].push_back(
          cluster->service(dc)->GroupLog(group)->AllEntries());
      if (!out.logs[g].back().empty()) {
        last = std::max(last, out.logs[g].back().rbegin()->first);
      }
    }
    out.initial.push_back(
        ToRow(cluster->service(0)->GroupLog(group)->ReadRow(out.row, 0)));
    for (int dc = 0; dc < out.num_dcs; ++dc) {
      pc::wal::WriteAheadLog* log = cluster->service(dc)->GroupLog(group);
      const Log& entries = out.logs[g][dc];
      const bool whole = entries.size() == last &&
                         (last == 0 || entries.rbegin()->first == last);
      std::optional<Row> final_row;
      if (whole && log->ApplyThrough(last).ok()) {
        final_row = ToRow(log->ReadRow(out.row, last));
      }
      out.final_rows[g].push_back(std::move(final_row));
      std::map<LogPos, Row> at;
      for (const auto& [pos, entry] : entries) {
        if (!entry.HasCrossRecords() || log->AppliedThrough() < pos) continue;
        Row prepared;
        for (const TxnRecord& t : entry.txns) {
          if (t.kind != RecordKind::kPrepare) continue;
          for (const pc::wal::WriteRecord& w : t.writes) {
            const pc::wal::ItemRead read = log->ReadItem(w.item, pos);
            if (read.found) {
              prepared[w.item.attribute] =
                  Cell{read.value, read.writer, read.written_pos};
            }
          }
        }
        at.emplace(pos, std::move(prepared));
      }
      out.rows_at[g].push_back(std::move(at));
    }
  }
  out.outcomes = stats.outcomes;
  out.total_txns = runner.total_txns;
  out.attempted = stats.attempted;
  out.committed = stats.committed;
  out.all_threads_finished = stats.all_threads_finished;
  out.checker_ok = stats.check.ok;
  out.latency_min = stats.latency_committed.min();
  out.latency_count = stats.latency_committed.count();

  std::vector<pc::TimeMicros> rtts =
      workload.cluster.RttMatrix()[static_cast<size_t>(runner.client_dc)];
  std::sort(rtts.begin(), rtts.end());
  const double quorum_rtt = static_cast<double>(rtts[rtts.size() / 2]);
  out.quorum_rtt_bound = static_cast<pc::TimeMicros>(
      quorum_rtt * (1.0 - workload.cluster.latency_jitter));
  return out;
}

std::vector<CheckFailure> Verify(const RunOutputs& out) {
  Failures failures;
  if (!out.checker_ok) {
    failures.Add(kProgramChecker, "the program's invariant checker failed");
  }
  if (!out.all_threads_finished || out.attempted != out.total_txns) {
    failures.Add(kProgramChecker,
                 "clients attempted " + std::to_string(out.attempted) +
                     " of " + std::to_string(out.total_txns) + " txns" +
                     (out.all_threads_finished ? "" : " and did not finish"));
  }
  const Merged merged = MergeLogs(out, &failures);
  CheckCommitted(out, merged, &failures);
  CheckReplay(out, merged, &failures);
  CheckCross(out, merged, &failures);
  CheckDurable(out, &failures);
  if (out.latency_count == 0) {
    failures.Add(kLatencyBound, "no committed transaction");
  } else if (out.latency_min < out.quorum_rtt_bound) {
    failures.Add(kLatencyBound,
                 "fastest commit took " + std::to_string(out.latency_min) +
                     " us, below one majority round trip of " +
                     std::to_string(out.quorum_rtt_bound) + " us");
  }
  return failures.Take();
}

namespace {

/// First (group, position, record index) whose record satisfies `pred`.
template <typename Pred>
bool FindRecord(const RunOutputs& out, Pred pred, size_t* group, LogPos* pos,
                size_t* index) {
  for (size_t g = 0; g < out.groups.size(); ++g) {
    for (const auto& [p, entry] : out.logs[g][0]) {
      for (size_t i = 0; i < entry.txns.size(); ++i) {
        if (pred(entry.txns[i])) {
          *group = g;
          *pos = p;
          *index = i;
          return true;
        }
      }
    }
  }
  return false;
}

/// Applies `edit` to record `index` at `pos` in every replica's copy, so
/// the replicas still agree with one another.
template <typename Edit>
void EditEverywhere(RunOutputs* out, size_t g, LogPos pos, Edit edit) {
  for (Log& log : out->logs[g]) {
    auto it = log.find(pos);
    if (it != log.end()) edit(&it->second);
  }
}

}  // namespace

std::vector<std::string> SelfTest(const RunOutputs& clean,
                                  std::vector<std::string>* covered) {
  std::vector<std::string> misses;
  auto expect = [&](const std::string& corruption, const char* check,
                    const RunOutputs& corrupted) {
    for (const CheckFailure& f : Verify(corrupted)) {
      if (f.check == check) {
        covered->push_back(check);
        return;
      }
    }
    misses.push_back(corruption + ": " + check + " did not fire");
  };
  auto skip = [&](const std::string& corruption) {
    misses.push_back(corruption + ": no record to corrupt");
  };
  size_t g = 0;
  LogPos pos = 0;
  size_t index = 0;

  {
    RunOutputs c = clean;
    c.checker_ok = false;
    expect("program checker red", kProgramChecker, c);
  }
  // One replica's entry altered: only dc1's copy changes.
  if (FindRecord(clean, [](const TxnRecord& t) { return !t.writes.empty(); },
                 &g, &pos, &index)) {
    RunOutputs c = clean;
    auto it = c.logs[g][1].find(pos);
    if (it != c.logs[g][1].end()) {
      it->second.txns[index].writes.front().value += "x";
      expect("one replica's entry altered", kReplicaAgreement, c);
    } else {
      skip("one replica's entry altered");
    }
  } else {
    skip("one replica's entry altered");
  }
  // One committed record dropped from every replica.
  if (FindRecord(clean,
                 [](const TxnRecord& t) { return t.kind == RecordKind::kData; },
                 &g, &pos, &index)) {
    RunOutputs c = clean;
    EditEverywhere(&c, g, pos, [index](LogEntry* e) {
      e->txns.erase(e->txns.begin() + static_cast<std::ptrdiff_t>(index));
    });
    expect("one committed record dropped", kCommittedCount, c);
  } else {
    skip("one committed record dropped");
  }
  // One read's observed writer changed, identically on every replica.
  auto reads_a_write = [](const TxnRecord& t) {
    if (t.kind != RecordKind::kData) return false;
    for (const pc::wal::ReadRecord& r : t.reads) {
      if (r.observed_writer != 0) return true;
    }
    return false;
  };
  if (FindRecord(clean, reads_a_write, &g, &pos, &index)) {
    RunOutputs c = clean;
    EditEverywhere(&c, g, pos, [index](LogEntry* e) {
      for (pc::wal::ReadRecord& r : e->txns[index].reads) {
        if (r.observed_writer != 0) {
          r.observed_writer += 1;
          break;
        }
      }
    });
    expect("one read's observed writer changed", kSerialReplay, c);
  } else {
    skip("one read's observed writer changed");
  }
  {
    RunOutputs c = clean;
    for (auto& row : c.final_rows[0]) {
      if (row && !row->empty()) {
        row->begin()->second.value += "x";
        break;
      }
    }
    expect("one replica's final row altered", kSerialReplay, c);
  }
  {
    RunOutputs c = clean;
    c.latency_min = c.quorum_rtt_bound - 1;
    expect("a commit latency below the quorum bound", kLatencyBound, c);
  }
  // An acknowledged commit kept by one replica only.
  for (const pc::core::ClientOutcome& o : clean.outcomes) {
    if (!o.committed || o.read_only || !o.groups.empty()) continue;
    RunOutputs c = clean;
    const size_t og = GroupIndex(c, o.group);
    for (int dc = 1; dc < c.num_dcs; ++dc) c.logs[og][dc].erase(o.position);
    expect("an acknowledged commit held by one replica", kMajorityDurable, c);
    break;
  }
  // A committed cross txn's prepare dropped from one participant group.
  const bool has_cross = std::any_of(
      clean.outcomes.begin(), clean.outcomes.end(),
      [](const pc::core::ClientOutcome& o) {
        return o.committed && !o.groups.empty();
      });
  if (has_cross) {
    TxnId victim = 0;
    for (const pc::core::ClientOutcome& o : clean.outcomes) {
      if (o.committed && !o.groups.empty()) {
        victim = o.id;
        break;
      }
    }
    const auto is_victim_prepare = [victim](const TxnRecord& t) {
      return t.id == victim && t.kind == RecordKind::kPrepare;
    };
    if (FindRecord(clean, is_victim_prepare, &g, &pos, &index)) {
      RunOutputs c = clean;
      EditEverywhere(&c, g, pos, [index](LogEntry* e) {
        e->txns[index].kind = RecordKind::kData;
      });
      expect("a committed cross txn's prepare turned into a plain write",
             kCrossAtomicity, c);
    } else {
      skip("a committed cross txn's prepare");
    }
  }
  return misses;
}

}  // namespace perfbench
