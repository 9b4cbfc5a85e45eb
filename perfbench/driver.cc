// End-to-end benchmark driver: runs one workload (workloads.h) round after
// round through core::Cluster + workload::RunExperiment for a given number
// of wall seconds, verifies the first round with the benchmark's own checks
// (verify.h), and prints one JSON object as its last line of output.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--trace-out <path>] [--txns <n>]
//   perfbench_driver --selftest
//
// Every round repeats the same experiment, so the virtual-time metrics and
// counts of every round must be identical (a nondeterministic round fails
// the run), and sim_txn_per_s is taken from the fastest round. With --trace 1
// the driver alternates traced and untraced rounds: traced rounds record
// spans around the benchmark's calls into each layer and replay the run's
// logs and rows through the WAL codec and the store, and the per-layer
// metrics are reported instead of the end-to-end ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/cluster.h"
#include "verify.h"
#include "wal/log.h"
#include "workload/runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace pc = paxoscp;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ------------------------------------------------------------ tracing

/// In-memory spans (name, start, end, parent), written out once at exit
/// as Chrome trace-event JSON.
class Tracer {
 public:
  int Begin(const std::string& name) {
    spans_.push_back(Span{name, NowNs(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(index)].parent;
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name.c_str(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  /// Per span name: count, total and self time (duration minus the part
  /// covered by child spans), printed to stderr.
  void PrintSummary() const {
    struct Totals {
      int count = 0;
      int64_t total = 0;
      int64_t self = 0;
    };
    std::map<std::string, Totals> by_name;
    std::vector<int64_t> child_time(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = by_name[spans_[i].name];
      ++t.count;
      t.total += spans_[i].end_ns - spans_[i].start_ns;
      t.self += spans_[i].end_ns - spans_[i].start_ns - child_time[i];
    }
    std::fprintf(stderr, "%-22s %6s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms");
    for (const auto& [name, t] : by_name) {
      std::fprintf(stderr, "%-22s %6d %12.3f %12.3f\n", name.c_str(), t.count,
                   static_cast<double>(t.total) / 1e6,
                   static_cast<double>(t.self) / 1e6);
    }
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Records one span when `tracer` is non-null; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// ------------------------------------------------------------ one round

/// (name, (value, unit)) in output order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

struct Round {
  int64_t setup_end_ns = 0;
  double experiment_s = 0;
  int attempted = 0;
  int failed = 0;
  std::string digest;            // virtual-time outcome; equal every round
  Metrics end_to_end;            // virtual-time part
  Metrics layers;                // traced rounds only
  double checker_s = 0;          // traced rounds only
  uint64_t events = 0;           // traced rounds only
  bool checker_ok = true;
  std::vector<CheckFailure> failures;  // verified rounds only
  long peak_rss_kb = 0;          // RSS high-water mark after the experiment
};

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double Ms(double micros) { return micros / 1000.0; }

std::string Digest(const pc::workload::RunStats& s, uint64_t events) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "att=%d com=%d ro=%d abo=%d fail=%d lat=%llu/%lld/%lld/%.17g "
      "msgs=%llu vdur=%lld ev=%llu comb=%d cross=%d/%d/%d",
      s.attempted, s.committed, s.read_only, s.aborted, s.failed,
      static_cast<unsigned long long>(s.latency_committed.count()),
      static_cast<long long>(s.latency_committed.min()),
      static_cast<long long>(s.latency_committed.max()),
      s.latency_committed.Mean(),
      static_cast<unsigned long long>(s.messages_sent),
      static_cast<long long>(s.virtual_duration),
      static_cast<unsigned long long>(events), s.combined_entries,
      s.cross_attempted, s.cross_committed, s.cross_aborted);
  return buf;
}

/// Standalone run of the program's checker on the finished cluster.
bool RunChecker(pc::core::Cluster* cluster, const Workload& w,
                const pc::workload::RunStats& stats) {
  pc::core::Checker checker(cluster);
  if (w.runner.workload.num_groups > 1) {
    return checker.CheckAllCross(GroupNames(w), stats.outcomes).ok;
  }
  return checker.CheckAll(w.runner.workload.group, stats.outcomes).ok;
}

/// Per-layer metrics of a finished round (README.md lists which end-to-end
/// metric each should move). Timed replays run inside their own spans.
void MeasureLayers(pc::core::Cluster* cluster, const Workload& w,
                   const pc::workload::RunStats& s, Tracer* tracer,
                   Round* round) {
  const double attempted = std::max(s.attempted, 1);
  const double committed = std::max(s.committed, 1);
  Metrics& m = round->layers;
  const std::vector<std::string> groups = GroupNames(w);
  const int dcs = cluster->num_datacenters();

  // Counters, read before anything below adds work.
  round->events = cluster->simulator()->EventsExecuted();
  uint64_t row_versions = 0;
  uint64_t reads_served = 0;
  uint64_t learn_instances = 0;
  for (int dc = 0; dc < dcs; ++dc) {
    pc::txn::TransactionService* service = cluster->service(dc);
    reads_served += service->reads_served();
    learn_instances += service->learn_instances();
    for (const std::string& group : groups) {
      row_versions += cluster->store(dc)->VersionCount(
          service->GroupLog(group)->DataKey(w.runner.workload.row));
    }
  }
  const pc::net::Network* net = cluster->network();

  {
    ScopedSpan span(tracer, "checker");
    const int64_t t0 = NowNs();
    round->checker_ok = RunChecker(cluster, w, s);
    round->checker_s = Seconds(NowNs() - t0);
  }

  // WAL: decode every replica's log, then re-encode every entry.
  std::vector<std::map<pc::LogPos, pc::wal::LogEntry>> logs;
  uint64_t decoded = 0;
  int64_t decode_ns = 0;
  {
    ScopedSpan span(tracer, "wal.decode");
    for (const std::string& group : groups) {
      for (int dc = 0; dc < dcs; ++dc) {
        const int64_t t0 = NowNs();
        logs.push_back(cluster->service(dc)->GroupLog(group)->AllEntries());
        decode_ns += NowNs() - t0;
        decoded += logs.back().size();
      }
    }
  }
  uint64_t encoded_bytes = 0;
  int64_t encode_ns = 0;
  {
    ScopedSpan span(tracer, "wal.encode");
    for (const auto& log : logs) {
      for (const auto& [pos, entry] : log) {
        const int64_t t0 = NowNs();
        const std::string bytes = entry.Encode();
        encode_ns += NowNs() - t0;
        encoded_bytes += bytes.size();
      }
    }
  }
  // Merged log size per group (the longest replica log) and its records.
  uint64_t entries = 0;
  uint64_t records = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::map<pc::LogPos, pc::wal::LogEntry>* longest = nullptr;
    for (int dc = 0; dc < dcs; ++dc) {
      const auto& log = logs[g * static_cast<size_t>(dcs) +
                             static_cast<size_t>(dc)];
      if (longest == nullptr || log.size() > longest->size()) longest = &log;
    }
    entries += longest->size();
    for (const auto& [pos, entry] : *longest) records += entry.txns.size();
  }

  // kvstore: read each data row at every committed position, per replica.
  uint64_t store_reads = 0;
  int64_t read_ns = 0;
  {
    ScopedSpan span(tracer, "kvstore.read");
    for (size_t g = 0; g < groups.size(); ++g) {
      for (int dc = 0; dc < dcs; ++dc) {
        const std::string key =
            cluster->service(dc)->GroupLog(groups[g])->DataKey(
                w.runner.workload.row);
        const pc::kvstore::MultiVersionStore* store = cluster->store(dc);
        const auto& log = logs[g * static_cast<size_t>(dcs) +
                               static_cast<size_t>(dc)];
        const int64_t t0 = NowNs();
        for (const auto& [pos, entry] : log) {
          if (store->Read(key, static_cast<pc::Timestamp>(pos)).ok()) {
            ++store_reads;
          }
        }
        read_ns += NowNs() - t0;
      }
    }
  }

  int promotions = 0;
  for (size_t r = 0; r < s.commits_by_round.size(); ++r) {
    promotions += static_cast<int>(r) * s.commits_by_round[r];
  }
  int outage_attempted = 0;
  int outage_commits = 0;
  for (size_t i = 0; i < s.windows.size(); ++i) {
    const pc::TimeMicros start =
        static_cast<pc::TimeMicros>(i) * s.window_width;
    for (const auto& [down, up] : w.outages) {
      if (start >= down && start + s.window_width <= up) {
        outage_attempted += s.windows[i].attempted;
        outage_commits += s.windows[i].committed + s.windows[i].read_only;
      }
    }
  }
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double events = static_cast<double>(round->events);
  m = {
      {"sim.events_per_txn", {events / attempted, "count"}},
      {"sim.wall_ns_per_event",
       {per((round->experiment_s - round->checker_s) * 1e9, events), "ns"}},
      {"net.messages_per_txn",
       {static_cast<double>(s.messages_sent) / attempted, "count"}},
      {"net.calls_per_txn",
       {static_cast<double>(net->calls_started()) / attempted, "count"}},
      {"net.messages_dropped",
       {static_cast<double>(net->messages_dropped()), "count"}},
      {"kvstore.row_versions", {static_cast<double>(row_versions), "count"}},
      {"kvstore.read_ns",
       {per(static_cast<double>(read_ns), static_cast<double>(store_reads)),
        "ns"}},
      {"wal.entries", {static_cast<double>(entries), "count"}},
      {"wal.bytes_per_entry",
       {per(static_cast<double>(encoded_bytes), static_cast<double>(decoded)),
        "bytes"}},
      {"wal.decode_ns_per_entry",
       {per(static_cast<double>(decode_ns), static_cast<double>(decoded)),
        "ns"}},
      {"wal.encode_ns_per_entry",
       {per(static_cast<double>(encode_ns), static_cast<double>(decoded)),
        "ns"}},
      {"wal.txns_per_entry",
       {per(static_cast<double>(records), static_cast<double>(entries)),
        "count"}},
      {"txn.promotions_per_commit", {promotions / committed, "count"}},
      {"txn.round0_commits",
       {s.commits_by_round.empty() ? 0.0 : s.commits_by_round[0], "count"}},
      {"txn.round0_p50_ms",
       {s.latency_by_round.empty() ? 0.0
                                   : Ms(s.latency_by_round[0].Median()),
        "virtual-ms"}},
      {"txn.fast_path_commits", {static_cast<double>(s.fast_path_commits),
                                 "count"}},
      {"txn.conflict_aborts", {static_cast<double>(s.aborted), "count"}},
      {"paxos.combined_entries", {static_cast<double>(s.combined_entries),
                                  "count"}},
      {"txn.reads_served_per_txn",
       {static_cast<double>(reads_served) / attempted, "count"}},
      {"txn.learn_instances", {static_cast<double>(learn_instances), "count"}},
      {"cross.committed", {static_cast<double>(s.cross_committed), "count"}},
      {"cross.aborted", {static_cast<double>(s.cross_aborted), "count"}},
      {"cross.decision_p50_ms",
       {Ms(s.latency_cross_decision.Median()), "virtual-ms"}},
      {"cross.commit_p50_ms", {Ms(s.latency_cross.Median()), "virtual-ms"}},
      {"cross.max_safe_read_pin_ms",
       {Ms(static_cast<double>(s.max_safe_read_pin)), "virtual-ms"}},
      {"checker.wall_s", {round->checker_s, "s"}},
      {"fault.outage_attempted", {static_cast<double>(outage_attempted),
                                  "count"}},
      {"fault.outage_commits", {static_cast<double>(outage_commits), "count"}},
      {"runner.virtual_s",
       {static_cast<double>(s.virtual_duration) / 1e6, "s-virtual"}},
  };
}

Round RunRound(const Workload& w, Tracer* tracer, bool verify) {
  Round round;
  ScopedSpan round_span(tracer, "round");
  std::unique_ptr<pc::core::Cluster> cluster;
  {
    ScopedSpan span(tracer, "setup");
    cluster = std::make_unique<pc::core::Cluster>(w.cluster);
    if (!w.faults.events.empty()) cluster->ApplyFaultPlan(w.faults);
  }
  round.setup_end_ns = NowNs();
  pc::workload::RunStats stats;
  {
    ScopedSpan span(tracer, "experiment");
    stats = pc::workload::RunExperiment(cluster.get(), w.runner);
  }
  round.experiment_s = Seconds(NowNs() - round.setup_end_ns);
  round.peak_rss_kb = PeakRssKb();
  round.attempted = stats.attempted;
  round.failed = stats.failed;
  round.digest =
      Digest(stats, cluster->simulator()->EventsExecuted());
  const double committed = std::max(stats.committed, 1);
  round.end_to_end = {
      {"commits", {static_cast<double>(stats.committed), "count"}},
      {"commit_p50_ms",
       {Ms(stats.latency_committed.Percentile(50)), "virtual-ms"}},
      {"commit_p99_ms",
       {Ms(stats.latency_committed.Percentile(99)), "virtual-ms"}},
      {"messages_per_commit",
       {static_cast<double>(stats.messages_sent) / committed, "msgs"}},
  };
  if (tracer != nullptr) MeasureLayers(cluster.get(), w, stats, tracer, &round);
  if (verify) {
    ScopedSpan span(tracer, "verify");
    round.failures = Verify(Capture(cluster.get(), w, stats));
  }
  {
    ScopedSpan span(tracer, "teardown");
    cluster.reset();
  }
  return round;
}

// ------------------------------------------------------------ output

void PrintMetric(const char* sep, const std::string& name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
              name.c_str(), value, unit);
}

int RunBenchmark(const std::string& name, uint64_t seed, double seconds,
                 int txns, bool traced, const std::string& trace_out) {
  Workload w;
  if (!MakeWorkload(name, seed, txns, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  Tracer tracer;
  std::vector<Round> rounds;
  const int64_t start = NowNs();
  // At least three rounds, so a median exists and a traced run has both
  // traced and untraced rounds.
  while (rounds.size() < 3 || Seconds(NowNs() - start) < seconds) {
    const bool trace_this = traced && rounds.size() % 2 == 0;
    rounds.push_back(
        RunRound(w, trace_this ? &tracer : nullptr, rounds.empty()));
    std::fprintf(stderr, "round %zu: experiment %.4f s\n", rounds.size(),
                 rounds.back().experiment_s);
  }

  bool correct = true;
  const Round& first = rounds.front();
  for (const CheckFailure& f : first.failures) {
    std::fprintf(stderr, "CHECK FAILED [%s] %s\n", f.check.c_str(),
                 f.detail.c_str());
    correct = false;
  }
  long attempted = 0;
  long failed = 0;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.digest != first.digest) {
      std::fprintf(stderr, "NONDETERMINISTIC round:\n  %s\n  %s\n",
                   first.digest.c_str(), r.digest.c_str());
      correct = false;
    }
    if (!r.checker_ok) {
      std::fprintf(stderr, "standalone checker failed\n");
      correct = false;
    }
  }
  std::fprintf(stderr, "%s seed %llu: %zu rounds, %s\n", name.c_str(),
               static_cast<unsigned long long>(seed), rounds.size(),
               first.digest.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"setup_end_ns\": %lld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed,
              static_cast<long long>(first.setup_end_ns));
  const char* sep = "";
  if (!traced) {
    // The fastest round: every round does the same work, so a slower one
    // was slowed by something outside the program (other tenants of the
    // machine), and the minimum is the steadiest estimate of the
    // program's own cost.
    double fastest_s = first.experiment_s;
    for (const Round& r : rounds) {
      fastest_s = std::min(fastest_s, r.experiment_s);
    }
    PrintMetric(sep, "sim_txn_per_s", first.attempted / fastest_s, "txn/s");
    sep = ", ";
    PrintMetric(sep, "peak_rss_mb",
                static_cast<double>(first.peak_rss_kb) / 1024.0, "MB");
    for (const auto& [metric, v] : first.end_to_end) {
      PrintMetric(sep, metric, v.first, v.second);
    }
  } else {
    // Timed per-layer values are medians over the traced rounds; counts
    // are equal in every round.
    std::vector<const Round*> traced_rounds;
    std::vector<double> traced_s;
    std::vector<double> untraced_s;
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (i % 2 == 0) {
        traced_rounds.push_back(&rounds[i]);
        traced_s.push_back(rounds[i].experiment_s);
      } else {
        untraced_s.push_back(rounds[i].experiment_s);
      }
    }
    const Metrics& layers = traced_rounds.front()->layers;
    for (size_t k = 0; k < layers.size(); ++k) {
      std::vector<double> values;
      for (const Round* r : traced_rounds) {
        values.push_back(r->layers[k].second.first);
      }
      PrintMetric(sep, layers[k].first, Median(values),
                  layers[k].second.second);
      sep = ", ";
    }
    PrintMetric(sep, "trace.overhead_ms",
                (Median(traced_s) - Median(untraced_s)) * 1e3, "ms");
    tracer.PrintSummary();
    if (!trace_out.empty() && !tracer.Write(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  std::printf("}}\n");
  return 0;
}

/// Short copies of every workload: each must verify clean, and every
/// corruption SelfTest makes must be caught, by every check at least once.
int RunSelfTest() {
  const std::map<std::string, int> lengths = {
      {"paper-cp", 300}, {"cross-2pc", 300}, {"outage-basic", 1200}};
  std::vector<std::string> covered;
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    Workload w;
    MakeWorkload(name, 1, lengths.at(name), &w);
    pc::core::Cluster cluster(w.cluster);
    if (!w.faults.events.empty()) cluster.ApplyFaultPlan(w.faults);
    const pc::workload::RunStats stats =
        pc::workload::RunExperiment(&cluster, w.runner);
    const RunOutputs outputs = Capture(&cluster, w, stats);
    const std::vector<CheckFailure> clean = Verify(outputs);
    for (const CheckFailure& f : clean) {
      std::printf("%s: clean run failed [%s] %s\n", name.c_str(),
                  f.check.c_str(), f.detail.c_str());
      ok = false;
    }
    for (const std::string& miss : SelfTest(outputs, &covered)) {
      std::printf("%s: %s\n", name.c_str(), miss.c_str());
      ok = false;
    }
  }
  for (const std::string& check : CheckNames()) {
    if (std::find(covered.begin(), covered.end(), check) == covered.end()) {
      std::printf("check %s never fired\n", check.c_str());
      ok = false;
    }
  }
  std::printf("selftest: %s (%zu corruptions caught)\n", ok ? "OK" : "FAILED",
              covered.size());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int txns = 0;  // 0: the workload's own length
  bool traced = false;
  bool selftest = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--txns" && has_value) {
      txns = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (selftest) return perfbench::RunSelfTest();
  if (workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return 2;
  }
  return perfbench::RunBenchmark(workload, seed, seconds, txns, traced,
                                 trace_out);
}
