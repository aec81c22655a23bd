// The benchmark's workloads: set-up of graph, store and engine from a
// seed, and one verified unit of work at a time.
//
// The unit is an *epoch*: one solo query job for bfs-ssd and
// pagerank-mem, one JobScheduler batch of BFS jobs (plus the update wave
// appended before it) for serve-ingest. Every job in an epoch is one op.
// Simulated time and the epoch-wide counters are counted once per epoch.
#ifndef GTSBENCH_WORKLOADS_H_
#define GTSBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "storage/paged_graph.h"
#include "tracer.h"

namespace gtsbench {

/// Named per-epoch values from the public RunMetrics (and, where a batch
/// epoch leaves RunMetrics empty, the engine's metrics registry), keyed
/// by per-layer metric name. Sums over an epoch; simulated times in ms.
using Counts = std::map<std::string, double>;

/// Host seconds of each set-up step.
struct SetupTimes {
  double generate_s = 0.0;
  double csr_build_s = 0.0;
  double page_build_s = 0.0;
  double store_init_s = 0.0;
  double engine_construct_s = 0.0;

  double total() const {
    return generate_s + csr_build_s + page_build_s + store_init_s +
           engine_construct_s;
  }
};

/// The generated graph, shared read-only by every engine built on it.
struct Graph {
  gts::CsrGraph csr;
  gts::PagedGraph paged;
};

/// Generates the RMAT graph (2^scale vertices, 16 edges per vertex) from
/// `seed`, builds its CSR and its pages. Aborts on a generator error.
std::unique_ptr<Graph> BuildGraph(int scale, uint64_t seed, Tracer* tracer,
                                  SetupTimes* times);

struct EpochResult {
  int ops = 0;
  int status_failures = 0;  ///< jobs whose Status was not OK
  int mismatches = 0;       ///< results that differ from the reference
  std::vector<double> op_wall_s;  ///< per op host latency
  std::vector<double> op_sim_s;   ///< per op simulated latency
  double sim_s = 0.0;     ///< simulated makespan of the epoch, counted once
  double timed_s = 0.0;   ///< host seconds of the epoch's timed work
  double check_s = 0.0;   ///< host seconds of reference checks (untimed)
  Counts counts;
};

struct WorkloadOptions {
  uint64_t seed = 1;
  bool keep_timeline = false;  ///< adds the per-OpKind simulated sums
  /// Corrupts the result of this op id before it is checked (tests that
  /// a wrong result is counted as failed); -1 = never.
  int64_t corrupt_op = -1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Names of the workloads Create() accepts.
  static const std::vector<std::string>& Names();

  /// Builds the store and engine over `graph` (timed into `times`) for
  /// workload `name`; null for an unknown name.
  static std::unique_ptr<Workload> Create(const std::string& name,
                                          const Graph* graph,
                                          const WorkloadOptions& options,
                                          Tracer* tracer, SetupTimes* times);

  /// Runs and verifies epoch `epoch`. Epochs must run in order from 0;
  /// their inputs depend only on the seed and the epoch index.
  virtual EpochResult RunEpoch(int64_t epoch) = 0;

  /// Ops (jobs) per epoch; op ids are epoch * ops_per_epoch() + job.
  virtual int ops_per_epoch() const { return 1; }
};

}  // namespace gtsbench

#endif  // GTSBENCH_WORKLOADS_H_
