// Shared harness for the figure-reproduction benches: the paper's standard
// workload (§6) — 500 transactions, 10 ops each, 50/50 read-write over a
// single row, 4 concurrent staggered threads at 1 txn/s each — plus row
// formatting used by every fig*/table* binary, the `--json <path>`
// perf-snapshot reporter (schema documented in EXPERIMENTS.md), and the
// `--shuffle-seed <N>` tie-shuffle knob (design note D12 mode 2) that every
// PerfReporter-driven bench inherits for schedule-order invariance checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "workload/generator.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace paxoscp::bench {

// ------------------------------------------------------- perf snapshots

/// Accumulates name → (ns/op, items/s) entries and writes the repo's
/// perf-trajectory JSON snapshot ("paxoscp-perf-v1"; see EXPERIMENTS.md).
/// When the entry came from a workload run, a nested "shape" object records
/// the run's deterministic outcome counters — everything about the result
/// EXCEPT wall-clock perf. scripts/shuffle_invariance.py strips the two
/// perf fields and byte-compares the rest across tie-shuffle seeds, so the
/// shape object is what makes "snapshots modulo perf" a meaningful claim.
/// scripts/perf_compare.py reads only ns_per_op and ignores extra keys.
class PerfJsonWriter {
 public:
  explicit PerfJsonWriter(std::string binary) : binary_(std::move(binary)) {}

  void Add(const std::string& name, double ns_per_op, double items_per_s) {
    entries_.push_back(Entry{name, ns_per_op, items_per_s, false, {}});
  }

  void Add(const std::string& name, double ns_per_op, double items_per_s,
           const workload::RunStats& stats) {
    entries_.push_back(Entry{name, ns_per_op, items_per_s, true, stats});
  }

  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"schema\": \"paxoscp-perf-v1\",\n");
    std::fprintf(f, "  \"binary\": \"%s\",\n", Escaped(binary_).c_str());
    std::fprintf(f, "  \"benchmarks\": {\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "    \"%s\": {\"ns_per_op\": %.2f, \"items_per_s\": %.2f",
                   Escaped(e.name).c_str(), e.ns_per_op, e.items_per_s);
      if (e.has_shape) {
        const workload::RunStats& s = e.stats;
        std::fprintf(
            f,
            ", \"shape\": {\"attempted\": %d, \"committed\": %d, "
            "\"read_only\": %d, \"aborted\": %d, \"failed\": %d, "
            "\"combined_entries\": %d, \"cross_attempted\": %d, "
            "\"cross_committed\": %d, \"cross_aborted\": %d, "
            "\"check_ok\": %s, \"all_threads_finished\": %s}",
            s.attempted, s.committed, s.read_only, s.aborted, s.failed,
            s.combined_entries, s.cross_attempted, s.cross_committed,
            s.cross_aborted, s.check.ok ? "true" : "false",
            s.all_threads_finished ? "true" : "false");
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op;
    double items_per_s;
    bool has_shape;
    workload::RunStats stats;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // drop controls
      out.push_back(c);
    }
    return out;
  }

  std::string binary_;
  std::vector<Entry> entries_;
};

/// Extracts `--json <path>` (or `--json=<path>`) from argv, removing the
/// consumed arguments so later flag parsers never see them. Returns "" when
/// the flag is absent.
inline std::string TakeJsonPathArg(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Extracts `--shuffle-seed <N>` (or `--shuffle-seed=<N>`) from argv, same
/// contract as TakeJsonPathArg. Returns 0 (FIFO tie-break, the production
/// schedule) when the flag is absent.
inline uint64_t TakeShuffleSeedArg(int* argc, char** argv) {
  uint64_t seed = 0;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--shuffle-seed") == 0 && i + 1 < *argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--shuffle-seed=", 15) == 0) {
      seed = std::strtoull(argv[i] + 15, nullptr, 10);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return seed;
}

/// Wall-clock wrapper around workload::RunExperiment for the fig benches:
/// each labelled run is recorded as "<label>" → ns per attempted txn and
/// attempted txns per wall-second. On destruction the snapshot is written
/// to the `--json` path (no-op when the flag was absent).
class PerfReporter {
 public:
  PerfReporter(int* argc, char** argv, std::string binary)
      : json_path_(TakeJsonPathArg(argc, argv)),
        shuffle_seed_(TakeShuffleSeedArg(argc, argv)),
        writer_(std::move(binary)) {
    if (shuffle_seed_ != 0) {
      std::printf("tie-shuffle seed %llu (D12 mode 2)\n",
                  static_cast<unsigned long long>(shuffle_seed_));
    }
  }

  ~PerfReporter() {
    if (json_path_.empty()) return;
    if (writer_.WriteTo(json_path_)) {
      std::printf("perf snapshot written to %s\n", json_path_.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path_.c_str());
    }
  }

  workload::RunStats Run(const std::string& label,
                         const core::ClusterConfig& cluster,
                         const workload::RunnerConfig& config) {
    core::Cluster built(cluster);
    return Run(label, &built, config);
  }

  /// Variant for experiments that prepare the cluster first (e.g. arm a
  /// fault plan with Cluster::ApplyFaultPlan before the workload starts).
  workload::RunStats Run(const std::string& label, core::Cluster* cluster,
                         const workload::RunnerConfig& config) {
    // Applied per-run so every cell of a sweep replays under the same
    // permutation family; seed 0 is a no-op (FIFO).
    cluster->simulator()->SetTieShuffle(shuffle_seed_);
    const auto start = std::chrono::steady_clock::now();
    workload::RunStats stats = workload::RunExperiment(cluster, config);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double txns = stats.attempted > 0 ? stats.attempted : 1;
    writer_.Add(label, seconds * 1e9 / txns, txns / seconds, stats);
    return stats;
  }

 private:
  std::string json_path_;
  uint64_t shuffle_seed_;
  PerfJsonWriter writer_;
};

/// Exit-status gate of a figure bench: records every claim of the figure
/// that fails, reports it on stderr (stdout stays the figure's table), and
/// turns it into main's return value.
class Gate {
 public:
  void Check(bool ok, const std::string& claim) {
    if (ok) return;
    std::fprintf(stderr, "GATE FAILED: %s\n", claim.c_str());
    failed_ = true;
  }

  /// Every cell must pass the serializability checker with all of its
  /// client threads finished.
  void CheckRun(const std::string& label, const workload::RunStats& stats) {
    Check(stats.check.ok, label + ": serializability checker failed");
    Check(stats.all_threads_finished,
          label + ": not every client thread finished");
  }

  /// Paxos-CP must commit at least as many transactions as basic Paxos on
  /// the same cell.
  void CheckCpNotBelowBasic(const std::string& label,
                            const workload::RunStats& basic,
                            const workload::RunStats& cp) {
    Check(cp.committed >= basic.committed,
          label + ": Paxos-CP committed " + std::to_string(cp.committed) +
              " < basic " + std::to_string(basic.committed));
  }

  int ExitCode() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

/// The paper's standard experiment configuration.
inline workload::RunnerConfig PaperWorkload(txn::Protocol protocol,
                                            uint64_t seed = 7) {
  workload::RunnerConfig config;
  config.workload.num_attributes = 100;
  config.workload.ops_per_txn = 10;
  config.workload.read_fraction = 0.5;
  config.total_txns = 500;
  config.num_threads = 4;
  config.stagger = 250 * kMillisecond;
  config.target_rate_tps = 1.0;
  config.client.protocol = protocol;
  config.seed = seed;
  return config;
}

inline core::ClusterConfig PaperCluster(const std::string& code,
                                        uint64_t seed = 11) {
  core::ClusterConfig config = *core::ClusterConfig::FromCode(code);
  config.seed = seed;
  return config;
}

/// One row of a results table for a single run.
inline std::vector<std::string> ResultRow(const std::string& label,
                                          const txn::Protocol protocol,
                                          const workload::RunStats& stats) {
  return {
      label,
      txn::ProtocolName(protocol),
      std::to_string(stats.committed),
      std::to_string(stats.aborted),
      workload::CommitsByRound(stats),
      workload::FormatDouble(stats.MeanLatencyMs(0), 0) + " ms",
      workload::FormatDouble(stats.MeanLatencyMs(), 0) + " ms",
      std::to_string(stats.combined_entries),
      workload::FormatDouble(stats.messages_per_attempt, 1),
      stats.check.ok ? "OK" : "VIOLATED",
  };
}

inline std::vector<std::string> ResultHeaders(const std::string& first) {
  return {first,        "protocol", "commits", "aborts",
          "by-round",   "lat(r0)",  "lat(all)", "combined",
          "msgs/txn",   "serializability"};
}

}  // namespace paxoscp::bench
