#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/job/job_scheduler.h"
#include "graph/rmat_generator.h"
#include "ingest/edge_stream.h"
#include "storage/page_builder.h"
#include "storage/page_store.h"

namespace gtsbench {
namespace {

using gts::RunMetrics;
using gts::VertexId;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& what, const gts::Status& status) {
  std::fprintf(stderr, "gtsbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  gts::SplitMix64 mix(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                      (b * 0xc2b2ae3d27d4eb4fULL));
  return mix.Next();
}

/// Source of job `job` in epoch `epoch`: a vertex with out-edges, so the
/// traversal does real work.
VertexId PickSource(const gts::CsrGraph& csr, uint64_t seed, int64_t epoch,
                    int job) {
  gts::Xoshiro256 rng(Mix(seed, static_cast<uint64_t>(epoch), job));
  while (true) {
    const auto v = static_cast<VertexId>(rng.NextBounded(csr.num_vertices()));
    if (csr.out_degree(v) > 0) return v;
  }
}

/// Per-job counters: each job of a batch epoch owns these.
void AddJobCounts(const RunMetrics& m, Counts* c) {
  (*c)["transfer.pages_streamed"] += m.pages_streamed;
  (*c)["transfer.bytes"] += m.transfer_bytes;
  (*c)["algorithms.edges_processed"] += m.work.edges_processed;
  (*c)["algorithms.active_vertices"] += m.work.active_vertices;
  (*c)["algorithms.sp_kernel_calls"] += m.sp_kernel_calls;
  (*c)["algorithms.lp_kernel_calls"] += m.lp_kernel_calls;
  (*c)["engine.levels"] += m.levels;
  (*c)["dispatch.pages_skipped"] += m.pages_skipped;
  (*c)["job.shared_page_hits"] += m.shared_page_hits;
}

/// Counters of one engine schedule: a solo run, or a whole batch epoch
/// (where every job carries the epoch's values).
void AddScheduleCounts(const RunMetrics& m, Counts* c) {
  (*c)["sim_ms"] += m.sim_seconds * 1e3;
  (*c)["storage.device_reads"] += m.io.device_reads;
  (*c)["storage.bytes_read"] += m.io.bytes_read;
  (*c)["storage.buffer_hits"] += m.io.buffer_hits;
  (*c)["storage.busy_sim_ms"] += m.storage_busy * 1e3;
  (*c)["io.submitted"] += m.io_queue.submitted;
  (*c)["io.merged_bursts"] += m.io_queue.merged_bursts;
  (*c)["io.reorder_wins"] += m.io_queue.reorder_wins;
  (*c)["io.demand_fetches"] += m.io_queue.demand_fetches;
  (*c)["io.prefetch_evictions"] += m.io_queue.prefetch_evictions;
  (*c)["io.backpressure"] += m.io_queue.backpressure;
  (*c)["transfer.busy_sim_ms"] += m.transfer_busy * 1e3;
  (*c)["gpu.kernel_busy_sim_ms"] += m.kernel_busy * 1e3;
  (*c)["ingest.updates_applied"] += m.ingest_updates_applied;
  (*c)["ingest.deltas_flushed"] += m.ingest_deltas_flushed;
  (*c)["ingest.compactions"] += m.ingest_compactions;
  (*c)["ingest.overlay_hits"] += m.ingest_overlay_hits;
  if (m.timeline.ops.empty()) return;
  for (const gts::gpu::TimelineOp& op : m.timeline.ops) {
    const double ms = op.duration * 1e3;
    switch (op.kind) {
      case gts::gpu::OpKind::kStorageFetch:
        (*c)["io.queue_wait_sim_ms"] += op.queue_wait * 1e3;
        break;
      case gts::gpu::OpKind::kH2DStream:
        (*c)["transfer.h2d_stream_sim_ms"] += ms;
        break;
      case gts::gpu::OpKind::kH2DChunk:
        (*c)["transfer.h2d_chunk_sim_ms"] += ms;
        break;
      case gts::gpu::OpKind::kD2H:
      case gts::gpu::OpKind::kP2P:
        (*c)["transfer.d2h_p2p_sim_ms"] += ms;
        break;
      default:
        break;
    }
  }
}

/// Device page-cache counters summed over GPUs. Read from the engine's
/// registry because batch epochs leave RunMetrics::cache_* at zero.
Counts CacheCounters(gts::GtsEngine& engine) {
  Counts c;
  for (int g = 0; g < engine.num_gpus(); ++g) {
    const std::string prefix = "cache.gpu" + std::to_string(g);
    auto& registry = *engine.metrics_registry();
    c["cache.lookups"] += registry.GetCounter(prefix + ".lookups").value();
    c["cache.hits"] += registry.GetCounter(prefix + ".hits").value();
    c["cache.backpressure"] +=
        registry.GetCounter(prefix + ".backpressure").value();
  }
  return c;
}

void AddDelta(const Counts& before, const Counts& after, Counts* c) {
  for (const auto& [name, value] : after) {
    (*c)[name] += value - before.at(name);
  }
}

bool LevelsMatch(const std::vector<uint16_t>& got,
                 const std::vector<uint32_t>& want) {
  if (got.size() != want.size()) return false;
  for (size_t v = 0; v < got.size(); ++v) {
    const uint32_t expected = want[v] == gts::kUnreachedLevel
                                  ? gts::BfsKernel::kUnvisited
                                  : want[v];
    if (got[v] != expected) return false;
  }
  return true;
}

void CorruptLevels(std::vector<uint16_t>* levels) {
  (*levels)[0] = (*levels)[0] == 1 ? 2 : 1;
}

/// State every workload shares: the graph, its store and engine.
class EngineWorkload : public Workload {
 protected:
  EngineWorkload(const Graph* graph, const WorkloadOptions& options,
                 Tracer* tracer)
      : graph_(graph), options_(options), tracer_(tracer) {}

  void Build(bool ssd, gts::GtsOptions engine_options, SetupTimes* times) {
    auto t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "storage.store_init");
      store_ = ssd ? gts::MakeSsdStore(&graph_->paged, /*n=*/2,
                                       graph_->paged.TotalTopologyBytes() / 5)
                   : gts::MakeInMemoryStore(&graph_->paged);
    }
    times->store_init_s = SecondsSince(t0);
    engine_options.keep_timeline = options_.keep_timeline;
    t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "engine.construct");
      engine_ = std::make_unique<gts::GtsEngine>(
          &graph_->paged, store_.get(), gts::MachineConfig::PaperScaled(2),
          engine_options);
    }
    times->engine_construct_s = SecondsSince(t0);
  }

  bool Corrupt(int64_t op) const { return op == options_.corrupt_op; }

  /// One solo job as one epoch: times `run` (returning the algorithm's
  /// Result) under the span `name`, counts the engine passes `passes`
  /// lists, then times `check` (true when the result matches its
  /// reference) as the reference check.
  template <typename Run, typename Passes, typename Check>
  EpochResult RunSolo(int64_t epoch, const char* name, Run run,
                      Passes passes, Check check) {
    EpochResult r;
    r.ops = 1;
    tracer_->set_op(epoch);
    const Counts cache_before = CacheCounters(*engine_);
    auto t0 = Clock::now();
    auto result = [&] {
      ScopedSpan span(tracer_, name);
      return run();
    }();
    r.timed_s = SecondsSince(t0);
    r.op_wall_s.push_back(r.timed_s);
    AddDelta(cache_before, CacheCounters(*engine_), &r.counts);
    if (!result.ok()) {
      std::fprintf(stderr, "op %lld: %s\n", static_cast<long long>(epoch),
                   result.status().ToString().c_str());
      r.status_failures = 1;
      r.op_sim_s.push_back(0.0);
      return r;
    }
    r.sim_s = result->report.metrics.sim_seconds;
    r.op_sim_s.push_back(r.sim_s);
    for (const RunMetrics& pass : passes(*result)) {
      AddJobCounts(pass, &r.counts);
      AddScheduleCounts(pass, &r.counts);
    }
    t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "reference.check");
      if (!check(&*result)) r.mismatches = 1;
    }
    r.check_s = SecondsSince(t0);
    return r;
  }

  const Graph* graph_;
  WorkloadOptions options_;
  Tracer* tracer_;
  std::unique_ptr<gts::PageStore> store_;
  std::unique_ptr<gts::GtsEngine> engine_;
};

// bfs-ssd: solo BFS from seeded sources over 2 simulated SSDs with MMBuf
// at 20% of the topology -- the paper's out-of-core traversal.
class BfsSsd final : public EngineWorkload {
 public:
  BfsSsd(const Graph* graph, const WorkloadOptions& options, Tracer* tracer,
         SetupTimes* times)
      : EngineWorkload(graph, options, tracer) {
    Build(/*ssd=*/true, gts::GtsOptions{}, times);
  }

  EpochResult RunEpoch(int64_t epoch) override {
    const VertexId source = PickSource(graph_->csr, options_.seed, epoch, 0);
    return RunSolo(
        epoch, "algorithms.bfs",
        [&] { return gts::RunBfsGts(*engine_, source); },
        [](const gts::BfsGtsResult& bfs) {
          return std::vector<RunMetrics>{bfs.report.metrics};
        },
        [&](gts::BfsGtsResult* bfs) {
          if (Corrupt(epoch)) CorruptLevels(&bfs->levels);
          return LevelsMatch(bfs->levels,
                             gts::ReferenceBfs(graph_->csr, source));
        });
  }
};

// pagerank-mem: 5-iteration PageRank jobs from the in-memory store. Full
// scans stream every page each iteration and bypass storage, io and the
// device page cache, so transfer, kernels and dispatch dominate.
class PageRankMem final : public EngineWorkload {
 public:
  static constexpr int kIterations = 5;

  PageRankMem(const Graph* graph, const WorkloadOptions& options,
              Tracer* tracer, SetupTimes* times)
      : EngineWorkload(graph, options, tracer) {
    Build(/*ssd=*/false, gts::GtsOptions{}, times);
  }

  EpochResult RunEpoch(int64_t epoch) override {
    return RunSolo(
        epoch, "algorithms.pagerank",
        [&] {
          return gts::RunPageRankGts(*engine_, {.iterations = kIterations});
        },
        [](const gts::PageRankGtsResult& pr) -> const std::vector<RunMetrics>& {
          return pr.iterations;
        },
        [&](gts::PageRankGtsResult* pr) {
          // Every job computes the same ranks; the reference is computed
          // once.
          if (reference_.empty()) {
            reference_ = gts::ReferencePageRank(graph_->csr, kIterations);
          }
          if (Corrupt(epoch)) pr->ranks[0] += 1.0f;
          // The tolerance of the repo's algorithm sweep test.
          for (size_t v = 0; v < reference_.size(); ++v) {
            const double want = reference_[v];
            if (std::abs(pr->ranks[v] - want) > 3e-4 * (1.0 + want)) {
              return false;
            }
          }
          return true;
        });
  }

 private:
  std::vector<double> reference_;
};

// serve-ingest: writes beside reads on the batch path. Each epoch appends
// one wave of degree-neutral rewires, flushes the gutters (every third
// wave also quiesces ingest), then runs a JobScheduler epoch of 4 BFS
// jobs. Results are checked against a mirror of the graph with every
// appended update applied.
class ServeIngest final : public EngineWorkload {
 public:
  static constexpr int kJobs = 4;
  static constexpr int kRewiresPerWave = 2000;
  static constexpr int kQuiesceEvery = 3;

  ServeIngest(const Graph* graph, const WorkloadOptions& options,
              Tracer* tracer, SetupTimes* times)
      : EngineWorkload(graph, options, tracer) {
    gts::GtsOptions engine_options;
    engine_options.max_concurrent_jobs = kJobs;
    engine_options.dispatch.work_stealing = true;
    engine_options.use_stream_threads = false;
    engine_options.ingest.enabled = true;
    // A background compactor picks each install's safe point by OS
    // timing, which would make simulated time drift run to run.
    engine_options.ingest.background_compaction = false;
    Build(/*ssd=*/true, engine_options, times);
    const gts::CsrGraph& csr = graph_->csr;
    mirror_.resize(csr.num_vertices());
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      mirror_[v].assign(csr.neighbors(v).begin(), csr.neighbors(v).end());
    }
  }

  int ops_per_epoch() const override { return kJobs; }

  EpochResult RunEpoch(int64_t epoch) override {
    EpochResult r;
    r.ops = kJobs;
    const int64_t first_op = epoch * kJobs;
    tracer_->set_op(first_op);
    const gts::ingest::UpdateBatch wave = MakeWave(epoch);

    const Counts cache_before = CacheCounters(*engine_);
    const auto t0 = Clock::now();
    gts::ingest::EdgeStream* stream = engine_->edge_stream();
    {
      ScopedSpan span(tracer_, "ingest.append");
      const gts::Status appended = stream->Append(wave);
      if (!appended.ok()) Die("append", appended);
      stream->FlushGutters();
    }
    if (epoch % kQuiesceEvery == kQuiesceEvery - 1) {
      ScopedSpan span(tracer_, "ingest.quiesce");
      const gts::Status quiesced = engine_->scheduler().QuiesceIngest();
      if (!quiesced.ok()) Die("quiesce", quiesced);
    }

    std::vector<VertexId> sources(kJobs);
    std::vector<std::unique_ptr<gts::BfsKernel>> kernels(kJobs);
    std::vector<gts::JobHandle> handles(kJobs);
    std::vector<Clock::time_point> submitted(kJobs);
    const VertexId n = graph_->csr.num_vertices();
    for (int j = 0; j < kJobs; ++j) {
      tracer_->set_op(first_op + j);
      ScopedSpan span(tracer_, "job.submit");
      sources[j] = PickSource(graph_->csr, options_.seed, epoch, j);
      kernels[j] = std::make_unique<gts::BfsKernel>(n, sources[j]);
      gts::JobOptions job;
      job.source = sources[j];
      submitted[j] = Clock::now();
      handles[j] = engine_->scheduler().Submit(kernels[j].get(), job);
    }
    std::vector<gts::Result<gts::RunReport>> reports;
    for (int j = 0; j < kJobs; ++j) {
      tracer_->set_op(first_op + j);
      ScopedSpan span(tracer_, "job.wait");
      reports.push_back(handles[j].Wait());
      r.op_wall_s.push_back(SecondsSince(submitted[j]));
    }
    r.timed_s = SecondsSince(t0);
    AddDelta(cache_before, CacheCounters(*engine_), &r.counts);

    // Storage and io counters of a batch job are epoch-cumulative up to
    // that job's completion, so the epoch's totals are the maxima.
    RunMetrics whole_epoch;
    bool any_ok = false;
    std::set<double> makespans;
    for (int j = 0; j < kJobs; ++j) {
      if (!reports[j].ok()) {
        std::fprintf(stderr, "op %lld: %s\n",
                     static_cast<long long>(first_op + j),
                     reports[j].status().ToString().c_str());
        ++r.status_failures;
        r.op_sim_s.push_back(0.0);
        continue;
      }
      const RunMetrics& m = reports[j]->metrics;
      r.op_sim_s.push_back(m.sim_seconds);
      makespans.insert(m.sim_seconds);
      AddJobCounts(m, &r.counts);
      if (!any_ok) whole_epoch = m;
      any_ok = true;
      MaxInto(m, &whole_epoch);
    }
    for (double makespan : makespans) r.sim_s += makespan;
    if (any_ok) {
      whole_epoch.sim_seconds = r.sim_s;
      AddScheduleCounts(whole_epoch, &r.counts);
    }

    const auto t1 = Clock::now();
    {
      tracer_->set_op(first_op);
      ScopedSpan span(tracer_, "reference.check");
      const gts::CsrGraph current = MirrorCsr();
      for (int j = 0; j < kJobs; ++j) {
        if (!reports[j].ok()) continue;
        std::vector<uint16_t> levels = kernels[j]->levels();
        if (Corrupt(first_op + j)) CorruptLevels(&levels);
        if (!LevelsMatch(levels, gts::ReferenceBfs(current, sources[j]))) {
          ++r.mismatches;
        }
      }
    }
    r.check_s = SecondsSince(t1);
    return r;
  }

 private:
  static void MaxInto(const RunMetrics& m, RunMetrics* out) {
    for (auto field : {&gts::PageStoreStats::buffer_hits,
                       &gts::PageStoreStats::device_reads,
                       &gts::PageStoreStats::bytes_read}) {
      out->io.*field = std::max(out->io.*field, m.io.*field);
    }
    for (auto field :
         {&gts::io::IoStats::submitted, &gts::io::IoStats::merged_bursts,
          &gts::io::IoStats::reorder_wins, &gts::io::IoStats::demand_fetches,
          &gts::io::IoStats::prefetch_evictions,
          &gts::io::IoStats::backpressure}) {
      out->io_queue.*field = std::max(out->io_queue.*field, m.io_queue.*field);
    }
  }

  /// One wave of rewires: each removes an existing out-edge of a vertex
  /// and inserts a new one from it, so no page grows. Applied to the
  /// mirror with the engine's semantics (a delete removes the first
  /// occurrence; an insert appends).
  gts::ingest::UpdateBatch MakeWave(int64_t epoch) {
    gts::Xoshiro256 rng(Mix(options_.seed, static_cast<uint64_t>(epoch),
                            /*b=*/0xfeed));
    const auto n = static_cast<VertexId>(mirror_.size());
    gts::ingest::UpdateBatch wave;
    wave.reserve(2 * kRewiresPerWave);
    for (int k = 0; k < kRewiresPerWave; ++k) {
      VertexId v = 0;
      do {
        v = static_cast<VertexId>(rng.NextBounded(n));
      } while (mirror_[v].empty());
      std::vector<VertexId>& adj = mirror_[v];
      const VertexId old_dst = adj[rng.NextBounded(adj.size())];
      const auto new_dst = static_cast<VertexId>(rng.NextBounded(n));
      adj.erase(std::find(adj.begin(), adj.end(), old_dst));
      adj.push_back(new_dst);
      wave.push_back(gts::ingest::EdgeUpdate::Remove(v, old_dst));
      wave.push_back(gts::ingest::EdgeUpdate::Insert(v, new_dst));
    }
    return wave;
  }

  gts::CsrGraph MirrorCsr() const {
    gts::EdgeList edges;
    edges.set_num_vertices(static_cast<VertexId>(mirror_.size()));
    edges.edges().reserve(graph_->csr.num_edges());
    for (VertexId v = 0; v < mirror_.size(); ++v) {
      for (VertexId u : mirror_[v]) edges.Add(v, u);
    }
    return gts::CsrGraph::FromEdgeList(edges);
  }

  std::vector<std::vector<VertexId>> mirror_;
};

}  // namespace

std::unique_ptr<Graph> BuildGraph(int scale, uint64_t seed, Tracer* tracer,
                                  SetupTimes* times) {
  auto graph = std::make_unique<Graph>();
  auto t0 = Clock::now();
  gts::EdgeList edges;
  {
    ScopedSpan span(tracer, "graph.generate");
    gts::RmatParams params;
    params.scale = scale;
    params.edge_factor = 16.0;
    params.seed = Mix(seed, 0x52, 0x4d);
    auto generated = gts::GenerateRmat(params);
    if (!generated.ok()) Die("generate", generated.status());
    edges = std::move(*generated);
  }
  times->generate_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "graph.csr_build");
    graph->csr = gts::CsrGraph::FromEdgeList(edges);
  }
  times->csr_build_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "storage.page_build");
    auto paged = gts::BuildPagedGraph(graph->csr, gts::PageConfig::Small22());
    if (!paged.ok()) Die("page build", paged.status());
    graph->paged = std::move(*paged);
  }
  times->page_build_s = SecondsSince(t0);
  return graph;
}

const std::vector<std::string>& Workload::Names() {
  static const std::vector<std::string> names = {"bfs-ssd", "pagerank-mem",
                                                 "serve-ingest"};
  return names;
}

std::unique_ptr<Workload> Workload::Create(const std::string& name,
                                           const Graph* graph,
                                           const WorkloadOptions& options,
                                           Tracer* tracer,
                                           SetupTimes* times) {
  if (name == "bfs-ssd") {
    return std::make_unique<BfsSsd>(graph, options, tracer, times);
  }
  if (name == "pagerank-mem") {
    return std::make_unique<PageRankMem>(graph, options, tracer, times);
  }
  if (name == "serve-ingest") {
    return std::make_unique<ServeIngest>(graph, options, tracer, times);
  }
  return nullptr;
}

}  // namespace gtsbench
