// gtsbench: one command that measures GTS end to end and layer by layer.
//
//   gtsbench --workload bfs-ssd|pagerank-mem|serve-ingest --seed N
//            --seconds S --trace 0|1 [--scale K] [--trace-out FILE]
//            [--state-dir DIR] [--corrupt-op I]
//
// A run sets up 6 times (graph from the seed, CSR, pages, store, engine).
// Each set-up runs one verified, untimed warm-up epoch and then verified
// epochs for S / 6 seconds of timed work with tracing off; the end-to-end
// metrics pool the six slices. --trace 1 adds a traced replay of the
// first epochs (about 10 s of timed work) on a fresh set-up and reports
// the per-layer metrics instead of the end-to-end ones. Every simulated
// value and counter must repeat exactly across the set-ups, between the
// untraced and traced phases, and across runs with one seed (recorded
// under --state-dir); a value that drifts is named and makes the run
// incorrect.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/prof.h"
#include "tracer.h"
#include "workloads.h"

namespace gtsbench {
namespace {

/// Set-ups per run; setup_s is their median, and the timed phase is split
/// evenly over them.
constexpr int kSetups = 6;
/// Set-up i times epochs i * kSliceEpochs + 1, + 2, ...: every slice of
/// the timed phase runs its own inputs. A multiple of 3, so serve-ingest's
/// quiesce cycle keeps its phase.
constexpr int64_t kSliceEpochs = 300000;
/// Seconds into a run after which the timed phase starts no epoch.
constexpr double kTimedDeadlineS = 110.0;
/// Seconds of timed work after which the traced replay starts no epoch.
constexpr double kReplaySeconds = 10.0;
/// Seconds into a run after which the traced replay starts no epoch.
constexpr double kReplayDeadlineS = 150.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int scale = 18;  // 2^18 vertices stands for the paper's RMAT28
  int64_t corrupt_op = -1;
  std::string trace_out;
  std::string state_dir;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gtsbench: %s\nusage: gtsbench --workload "
               "bfs-ssd|pagerank-mem|serve-ingest --seed N --seconds S "
               "--trace 0|1 [--scale K] [--trace-out FILE] "
               "[--state-dir DIR] [--corrupt-op I]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      a.scale = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--corrupt-op") {
      a.corrupt_op = std::strtoll(value.c_str(), &end, 10);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--state-dir") {
      a.state_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad number for " + flag).c_str());
    }
  }
  const auto& names = Workload::Names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    Usage("unknown or missing --workload");
  }
  if (!have_seed) Usage("missing --seed");
  if (!(a.seconds > 0.0) || a.scale < 8 || a.scale > 22) {
    Usage("--seconds must be > 0 and --scale in [8, 22]");
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least 10 samples ranked beyond it: the
/// (n-10)-th smallest of n samples. Below 11 samples, the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
  size_t beyond = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t k = v.size() >= 11 ? v.size() - 11 : v.size() - 1;
  t.value = v[k];
  t.beyond = v.size() - 1 - k;
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(v.size());
  return t;
}

/// Verified epochs of one phase and their totals.
struct Phase {
  std::vector<EpochResult> epochs;
  std::vector<int64_t> epoch_ids;  // the epoch index of each of `epochs`
  int ops = 0;
  int failed = 0;
  int status_failures = 0;
  double timed_s = 0.0;
  double sim_s = 0.0;
  double check_s = 0.0;
  std::vector<double> op_wall_s;
  std::vector<double> op_sim_s;
  Counts counts;

  void Add(int64_t epoch, EpochResult r) {
    ops += r.ops;
    failed += r.status_failures + r.mismatches;
    status_failures += r.status_failures;
    timed_s += r.timed_s;
    sim_s += r.sim_s;
    check_s += r.check_s;
    op_wall_s.insert(op_wall_s.end(), r.op_wall_s.begin(), r.op_wall_s.end());
    op_sim_s.insert(op_sim_s.end(), r.op_sim_s.begin(), r.op_sim_s.end());
    for (const auto& [name, value] : r.counts) counts[name] += value;
    epochs.push_back(std::move(r));
    epoch_ids.push_back(epoch);
  }
  double ops_per_s() const { return timed_s > 0 ? ops / timed_s : 0.0; }
  /// ops_per_s of the epochs with index at most `last`.
  double ops_per_s_through(int64_t last) const {
    int prefix_ops = 0;
    double prefix_s = 0.0;
    for (size_t i = 0; i < epochs.size(); ++i) {
      if (epoch_ids[i] > last) continue;
      prefix_ops += epochs[i].ops;
      prefix_s += epochs[i].timed_s;
    }
    return prefix_s > 0 ? prefix_ops / prefix_s : 0.0;
  }
  int64_t last_epoch() const {
    return epoch_ids.empty() ? 0 : epoch_ids.back();
  }
  double error_rate() const {
    return ops > 0 ? static_cast<double>(failed) / ops : 0.0;
  }
};

// ------------------------------------------------------------ determinism

/// Values of the per-OpKind timeline sums exist only with keep_timeline
/// (the traced phase), so they are not compared across phases.
bool TimelineOnly(const std::string& name) {
  static const std::set<std::string> names = {
      "io.queue_wait_sim_ms", "transfer.h2d_stream_sim_ms",
      "transfer.h2d_chunk_sim_ms", "transfer.d2h_p2p_sim_ms"};
  return names.count(name) > 0;
}

/// Everything an epoch must repeat exactly: its counters, simulated
/// makespan and per-op simulated latencies.
using Fingerprint = std::map<std::string, double>;

Fingerprint FingerprintOf(const EpochResult& r) {
  Fingerprint f;
  for (const auto& [name, value] : r.counts) {
    if (!TimelineOnly(name)) f[name] = value;
  }
  for (size_t i = 0; i < r.op_sim_s.size(); ++i) {
    f["op" + std::to_string(i) + ".sim_ms"] = r.op_sim_s[i] * 1e3;
  }
  return f;
}

struct Drifts {
  std::set<std::string> names;
  size_t compared = 0;

  void Compare(const Fingerprint& want, const Fingerprint& got,
               const std::string& where, int64_t epoch) {
    std::set<std::string> keys;
    for (const auto& kv : want) keys.insert(kv.first);
    for (const auto& kv : got) keys.insert(kv.first);
    for (const std::string& key : keys) {
      ++compared;
      const auto a = want.find(key);
      const auto b = got.find(key);
      if (a != want.end() && b != got.end() && a->second == b->second) {
        continue;
      }
      if (names.insert(key).second) {
        std::printf("DRIFT %s: epoch %" PRId64 " %s = %.17g vs %.17g\n",
                    where.c_str(), epoch, key.c_str(),
                    a == want.end() ? -1.0 : a->second,
                    b == got.end() ? -1.0 : b->second);
      }
    }
  }
};

/// Identifies the executable, so recorded fingerprints are compared only
/// against runs of the same build.
std::string BuildId(const char* executable) {
  struct stat st {};
  if (::stat(executable, &st) != 0) return "unknown";
  return std::to_string(st.st_size) + "-" + std::to_string(st.st_mtime);
}

/// Compares this run's epoch fingerprints with those recorded by an
/// earlier run with the same workload, seed, scale and build, then
/// records this run's if it covers more epochs.
void CheckAcrossRuns(const Args& args, const char* executable,
                     const std::vector<Fingerprint>& mine, Drifts* drifts) {
  if (args.state_dir.empty()) return;
  ::mkdir(args.state_dir.c_str(), 0755);
  const std::string path = args.state_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-scale" +
                           std::to_string(args.scale) + ".txt";
  const std::string build = BuildId(executable);
  std::vector<Fingerprint> recorded;
  {
    std::ifstream in(path);
    std::string line;
    if (std::getline(in, line) && line == build) {
      while (std::getline(in, line)) {
        std::istringstream fields(line);
        size_t epoch = 0;
        std::string name, hex;
        if (!(fields >> epoch >> name >> hex)) continue;
        if (recorded.size() <= epoch) recorded.resize(epoch + 1);
        recorded[epoch][name] = std::strtod(hex.c_str(), nullptr);
      }
    }
  }
  const size_t common = std::min(recorded.size(), mine.size());
  for (size_t e = 0; e < common; ++e) {
    drifts->Compare(recorded[e], mine[e], "across runs", e);
  }
  if (mine.size() <= recorded.size()) return;
  std::ofstream out(path, std::ios::trunc);
  out << build << "\n";
  char hex[64];
  for (size_t e = 0; e < mine.size(); ++e) {
    for (const auto& [name, value] : mine[e]) {
      std::snprintf(hex, sizeof(hex), "%a", value);
      out << e << " " << name << " " << hex << "\n";
    }
  }
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  ///< "host", "sim" or "-" (printed, not in the JSON)
  std::string note = "";
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %-10s %-5s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str(), m.note.c_str());
  }
}

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double PeakRssMiB() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string TailNote(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.1f of %zu ops (%zu ranked beyond)",
                t.percentile, t.samples, t.beyond);
  return buf;
}

double SetupMedian(const std::vector<SetupTimes>& setups,
                   double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& t : setups) v.push_back(t.*field);
  return Median(v);
}

std::vector<Metric> EndToEndMetrics(const std::vector<SetupTimes>& setups,
                                    const Phase& timed, double peak_rss_mib) {
  std::vector<double> setup_s, wall_ms, sim_ms;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total());
  for (double s : timed.op_wall_s) wall_ms.push_back(s * 1e3);
  for (double s : timed.op_sim_s) sim_ms.push_back(s * 1e3);
  const Tail wall_tail = TailOf(wall_ms);
  const Tail sim_tail = TailOf(sim_ms);
  char ops_note[96], sim_note[96];
  std::snprintf(ops_note, sizeof(ops_note), "%d ops in %.3f s of timed work",
                timed.ops, timed.timed_s);
  std::snprintf(sim_note, sizeof(sim_note),
                "%d ops in %.9f simulated s (batch epochs once)", timed.ops,
                timed.sim_s);
  return {
      {"setup_s", Median(setup_s), "s", "host",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"ops_per_s", timed.ops_per_s(), "ops/s", "host", ops_note},
      {"op_wall_ms_p50", Median(wall_ms), "ms", "host"},
      {"op_wall_ms_tail", wall_tail.value, "ms", "host", TailNote(wall_tail)},
      {"sim_ops_per_s", timed.sim_s > 0 ? timed.ops / timed.sim_s : 0.0,
       "ops/s", "sim", sim_note},
      {"op_sim_ms_p50", Median(sim_ms), "ms", "sim", "x1024 = paper ms"},
      {"op_sim_ms_tail", sim_tail.value, "ms", "sim", TailNote(sim_tail)},
      {"peak_rss_mb", peak_rss_mib, "MiB", "host", "ru_maxrss"},
      {"op_success_rate", 1.0 - timed.error_rate(), "ratio", "-",
       "1 - op_error_rate"},
  };
}

/// Per-op means of counted values, by name (see workloads.cc). Simulated
/// sums end in _sim_ms; byte counts are named bytes.
const char* const kPerOpCounts[] = {
    "storage.device_reads", "storage.bytes_read", "storage.busy_sim_ms",
    "io.submitted", "io.merged_bursts", "io.reorder_wins",
    "io.demand_fetches", "io.prefetch_evictions", "io.backpressure",
    "io.queue_wait_sim_ms", "cache.lookups", "cache.hits",
    "cache.backpressure", "transfer.pages_streamed", "transfer.bytes",
    "transfer.busy_sim_ms", "transfer.h2d_stream_sim_ms",
    "transfer.h2d_chunk_sim_ms", "transfer.d2h_p2p_sim_ms",
    "gpu.kernel_busy_sim_ms", "algorithms.edges_processed",
    "algorithms.active_vertices", "algorithms.sp_kernel_calls",
    "algorithms.lp_kernel_calls", "engine.levels", "dispatch.pages_skipped",
    "job.shared_page_hits", "ingest.updates_applied",
    "ingest.deltas_flushed", "ingest.compactions", "ingest.overlay_hits",
};

/// Host self time per op of each layer metric, summed over span names.
const std::pair<const char*, std::vector<const char*>> kSelfTimes[] = {
    {"engine.run_self_ms", {"engine.run", "engine.run_pass"}},
    {"engine.process_pages_ms", {"engine.process_pages"}},
    {"engine.finalize_run_ms", {"engine.finalize_run"}},
    {"algorithms.driver_self_ms", {"algorithms.bfs", "algorithms.pagerank"}},
    {"job.run_job_batch_ms", {"engine.run_job_batch"}},
    {"job.wait_ms", {"job.wait"}},
    {"ingest.append_ms", {"ingest.append"}},
    {"ingest.quiesce_ms", {"ingest.quiesce"}},
    {"reference.check_ms", {"reference.check"}},
};

std::vector<Metric> PerLayerMetrics(const std::vector<SetupTimes>& setups,
                                    const Phase& timed, const Phase& traced,
                                    int64_t both_ran,
                                    const std::map<std::string, double>& self,
                                    size_t drifted, double latency_ns) {
  const double ops = std::max(1, traced.ops);
  auto get = [](const std::map<std::string, double>& map,
                const std::string& name) {
    const auto it = map.find(name);
    return it == map.end() ? 0.0 : it->second;
  };
  auto count = [&](const std::string& name) {
    return get(traced.counts, name);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<Metric> m = {
      {"graph.generate_s", SetupMedian(setups, &SetupTimes::generate_s), "s",
       "host"},
      {"graph.csr_build_s", SetupMedian(setups, &SetupTimes::csr_build_s),
       "s", "host"},
      {"storage.page_build_s", SetupMedian(setups, &SetupTimes::page_build_s),
       "s", "host"},
      {"storage.store_init_s", SetupMedian(setups, &SetupTimes::store_init_s),
       "s", "host"},
      {"engine.construct_s",
       SetupMedian(setups, &SetupTimes::engine_construct_s), "s", "host"},
  };
  for (const std::string name : kPerOpCounts) {
    const bool sim = name.ends_with("_sim_ms");
    const bool bytes = name.ends_with("bytes") || name.ends_with("bytes_read");
    m.push_back({name, count(name) / ops,
                 sim ? "sim_ms/op" : bytes ? "B/op" : "count/op",
                 sim ? "sim" : "-"});
  }
  for (const auto& [name, spans] : kSelfTimes) {
    double ms = 0.0;
    for (const char* span : spans) ms += get(self, span);
    m.push_back({name, ms / ops, "ms/op", "host"});
  }
  const double pages = count("transfer.pages_streamed");
  const double shared = count("job.shared_page_hits");
  const double reads = count("storage.device_reads");
  const double buffer_hits = count("storage.buffer_hits");
  m.insert(
      m.end(),
      {
          {"storage.buffer_hit_ratio",
           ratio(buffer_hits, buffer_hits + reads), "ratio", "-"},
          {"cache.hit_rate",
           ratio(count("cache.hits"), count("cache.lookups")), "ratio", "-"},
          {"algorithms.edges_per_page",
           ratio(count("algorithms.edges_processed"), pages), "count/page",
           "-"},
          {"job.share_ratio", ratio(shared, pages + shared), "ratio", "-"},
          {"trace.overhead_ops_per_s",
           traced.ops_per_s_through(both_ran) -
               timed.ops_per_s_through(both_ran),
           "ops/s", "host", "traced minus untraced, same epochs"},
          {"determinism.drifted", static_cast<double>(drifted), "count", "-"},
          {"host.memory_latency_ns", latency_ns, "ns", "host"},
      });
  return m;
}

// -------------------------------------------------------------- the run

/// Nanoseconds per dependent load of a pointer chase over 32 MiB, more
/// than a last-level cache holds. The host clock of this benchmark moves
/// with the machine's memory latency (other tenants share it), so the
/// report carries this probe to tell a slower machine from slower code.
double MemoryLatencyNs() {
  constexpr uint32_t kSlots = 1u << 23;
  constexpr int kLoads = 1 << 21;
  std::vector<uint32_t> next(kSlots);
  // A full-period LCG modulo 2^23 (Hull-Dobell): one cycle through every
  // slot in an order the hardware prefetchers cannot follow.
  for (uint32_t i = 0; i < kSlots; ++i) {
    next[i] = (i * 1664525u + 1013904223u) & (kSlots - 1);
  }
  const auto t0 = Clock::now();
  uint32_t at = 0;
  for (int k = 0; k < kLoads; ++k) at = next[at];
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  // Depends on the chase's end point, so the loop cannot be elided.
  return (ns + (at == kSlots ? 1.0 : 0.0)) / kLoads;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs epochs first, first + 1, ... on `workload` until `seconds` of
/// timed work have passed, handing each to `done`. Reference checks run
/// outside the timed window, so the run's wall-clock is bounded too: past
/// `deadline_s` after `run_start` no epoch starts.
template <typename Done>
void RunTimed(Workload* workload, int64_t first, double seconds,
              Clock::time_point run_start, double deadline_s, Done done) {
  double timed_s = 0.0;
  for (int64_t epoch = first;
       timed_s < seconds && SecondsSince(run_start) < deadline_s; ++epoch) {
    EpochResult r = workload->RunEpoch(epoch);
    timed_s += r.timed_s;
    done(epoch, std::move(r));
  }
}

int Main(int argc, char** argv) {
  const auto run_start = Clock::now();
  const Args args = ParseArgs(argc, argv);
  std::printf("gtsbench workload=%s seed=%" PRIu64
              " scale=%d seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.scale, args.seconds,
              args.trace ? 1 : 0);

  std::vector<double> latency_ns = {MemoryLatencyNs()};
  Tracer tracer;
  WorkloadOptions options;
  options.seed = args.seed;
  options.corrupt_op = args.corrupt_op;
  int attempted = 0;
  int failed = 0;
  Drifts drifts;
  auto account = [&](const EpochResult& r) {
    attempted += r.ops;
    failed += r.status_failures + r.mismatches;
  };

  // Set-up, kSetups times. Each set-up runs the untimed warm-up epoch 0 and
  // then its slice of the timed phase: epochs i * kSliceEpochs + 1, + 2,
  // ... for seconds / kSetups of timed work. Host speed moves with where a
  // set-up's memory lands (set-ups of one seed differ by up to a third,
  // while one set-up holds steady), so a run spreads its timed work over
  // all of them.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Graph> graph;
  std::unique_ptr<Workload> workload;
  Phase timed;
  // Fingerprints of epoch 0 and of the first set-up's epochs, by index.
  // The other set-ups must repeat epoch 0 exactly, the traced replay all
  // of them.
  std::vector<Fingerprint> fingerprints;
  auto check_repeat = [&](int64_t epoch, const EpochResult& r,
                          const char* where) {
    const Fingerprint f = FingerprintOf(r);
    if (static_cast<size_t>(epoch) < fingerprints.size()) {
      drifts.Compare(fingerprints[epoch], f, where, epoch);
    } else {
      fingerprints.push_back(f);  // the first set-up runs 0, 1, 2, ...
    }
  };
  std::vector<double> setup_ops_per_s;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    graph.reset();
    // Hand the freed set-up's memory back, so peak_rss_mb is one set-up's
    // peak and not the leftovers of earlier ones.
    ::malloc_trim(0);
    SetupTimes times;
    graph = BuildGraph(args.scale, args.seed, &tracer, &times);
    workload =
        Workload::Create(args.workload, graph.get(), options, &tracer, &times);
    setups.push_back(times);
    const EpochResult warm = workload->RunEpoch(0);
    account(warm);
    check_repeat(0, warm, "across set-ups");
    const int ops_before = timed.ops;
    const double timed_before = timed.timed_s;
    RunTimed(workload.get(), i * kSliceEpochs + 1, args.seconds / kSetups,
             run_start, kTimedDeadlineS, [&](int64_t epoch, EpochResult r) {
               account(r);
               if (i == 0) fingerprints.push_back(FingerprintOf(r));
               timed.Add(epoch, std::move(r));
             });
    const double slice_s = timed.timed_s - timed_before;
    setup_ops_per_s.push_back(
        slice_s > 0 ? (timed.ops - ops_before) / slice_s : 0.0);
  }
  std::printf("graph: %" PRIu64 " vertices, %" PRIu64
              " edges, %zu pages, %.1f MiB topology; machine: 2 GPUs x 12 "
              "MiB (PaperScaled(2))\n",
              static_cast<uint64_t>(graph->csr.num_vertices()),
              static_cast<uint64_t>(graph->csr.num_edges()),
              graph->paged.num_pages(),
              graph->paged.TotalTopologyBytes() / 1048576.0);
  std::printf(
      "note: device page caches are rebuilt inside every engine run, so "
      "each op starts with an empty device cache; MMBuf persists across "
      "ops. Each of the %d set-ups ran one verified, untimed warm-up epoch "
      "and then its own 1/%d of the timed phase.\n",
      kSetups, kSetups);
  std::printf("timed ops/s by set-up:");
  for (double rate : setup_ops_per_s) std::printf(" %.4f", rate);
  std::printf("\n");
  // Read before the second probe, whose buffer would add to the peak.
  const double peak_rss_mib = PeakRssMiB();
  latency_ns.push_back(MemoryLatencyNs());
  std::printf("machine: memory latency %.1f ns before set-up, %.1f ns after "
              "the timed phase\n",
              latency_ns[0], latency_ns[1]);

  // Traced replay on a fresh set-up: epochs 1, 2, ... like the first
  // set-up, for kReplaySeconds of traced work. Epochs the first set-up ran
  // must repeat exactly; later ones only add samples.
  Phase traced;
  double clip_us = 0.0;
  if (args.trace) {
    workload.reset();
    graph.reset();
    tracer.set_op(-1);
    tracer.set_enabled(true);
    ProfSinkAdapter sink(&tracer);
    gts::obs::SetProfSink(&sink);
    SetupTimes times;
    graph = BuildGraph(args.scale, args.seed, &tracer, &times);
    options.keep_timeline = true;
    workload =
        Workload::Create(args.workload, graph.get(), options, &tracer, &times);
    const EpochResult warm = workload->RunEpoch(0);
    account(warm);
    check_repeat(0, warm, "traced vs untraced");
    RunTimed(workload.get(), 1, kReplaySeconds, run_start, kReplayDeadlineS,
             [&](int64_t epoch, EpochResult r) {
               account(r);
               if (static_cast<size_t>(epoch) < fingerprints.size()) {
                 check_repeat(epoch, r, "traced vs untraced");
               }
               traced.Add(epoch, std::move(r));
             });
    gts::obs::SetProfSink(nullptr);
    tracer.set_enabled(false);
    clip_us = tracer.ResolveParents();
  }
  CheckAcrossRuns(args, argv[0], fingerprints, &drifts);

  const bool correct = failed == 0 && drifts.names.empty();
  std::printf("correctness: %d of %d verified ops failed (%d in the timed "
              "phase); determinism: %zu values compared, %zu drifted\n",
              failed, attempted, timed.failed, drifts.compared,
              drifts.names.size());
  std::printf("  %-28s %16.6f %-10s %-5s %d non-OK Status + %d mismatches "
              "of %d ops\n",
              "op_error_rate", timed.error_rate(), "ratio", "-",
              timed.status_failures, timed.failed - timed.status_failures,
              timed.ops);

  std::vector<Metric> out;
  if (!args.trace) {
    out = EndToEndMetrics(setups, timed, peak_rss_mib);
    PrintMetrics("end-to-end metrics (tracing off):", out);
    std::printf("reference checks: %.3f host ms/op, outside the timed work\n",
                timed.ops == 0 ? 0.0 : timed.check_s * 1e3 / timed.ops);
  } else {
    // Epochs 1..both_ran ran both untraced (first set-up) and traced.
    const int64_t both_ran = std::min(
        traced.last_epoch(), static_cast<int64_t>(fingerprints.size()) - 1);
    const int64_t first_op = workload->ops_per_epoch();  // epoch 1
    const std::map<std::string, double> self = tracer.SelfMs(first_op);
    out = PerLayerMetrics(setups, timed, traced, both_ran, self,
                          drifts.names.size(),
                          Median(latency_ns));
    PrintMetrics(
        "per-layer metrics (traced replay; host ms are self time; simulated "
        "busy sums overlap and do not add up to the op's simulated time):",
        out);
    std::printf("self time by span (host ms/op):");
    for (const auto& [name, ms] : self) {
      std::printf(" %s=%.3f", name.c_str(), ms / std::max(1, traced.ops));
    }
    std::printf("\ntracing: untraced %.4f ops/s, traced %.4f ops/s; %zu "
                "spans; largest child clip %.3f us\n",
                timed.ops_per_s_through(both_ran),
                traced.ops_per_s_through(both_ran), tracer.spans().size(),
                clip_us);
    if (!args.trace_out.empty()) {
      const gts::Status written = tracer.WriteChromeTrace(
          args.trace_out, {{"workload", args.workload},
                           {"seed", std::to_string(args.seed)},
                           {"scale", std::to_string(args.scale)}});
      if (!written.ok()) {
        std::fprintf(stderr, "gtsbench: %s\n", written.ToString().c_str());
        return 1;
      }
      std::printf("wrote trace: %s\n", args.trace_out.c_str());
    }
  }
  PrintResult(correct, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace gtsbench

int main(int argc, char** argv) { return gtsbench::Main(argc, argv); }
