// The traced run: every per-layer metric of one workload, measured from
// outside the library by timing the benchmark's own calls into each
// layer's public API.
//
//   * A traced cell path mirrors experiments::CellWorkspace::run and times
//     workload::make_scenario, cluster::Cluster (construction + warmup,
//     run_scenario), sim::Engine::run and the metrics::Collector reads.
//     Traced and untraced (run_campaign) passes alternate; the throughput
//     gap between them is the tracing overhead.
//   * The work inside Engine::run is attributed by replaying each cell's
//     own call stream, taken from its CallRecords, through os::CpuSystem,
//     container::ContainerPool and the core policy stack on a standalone
//     engine. A layer's cost is the replay's time minus the same event
//     stream with empty callbacks.
//   * chaos-fleet times Engine::run against a plain node:4 deployment of
//     the same cell; sharded-sweep times run_distributed against
//     run_campaign on its grid.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "cluster/cluster.h"
#include "container/pool.h"
#include "core/pending_queue.h"
#include "core/policy.h"
#include "os/cpu_system.h"
#include "sim/engine.h"
#include "sim/random.h"
#include "util/check.h"
#include "workload/scenario_registry.h"

namespace perfbench {
namespace {

using whisk::experiments::ExperimentSpec;
using whisk::metrics::CallRecord;
using whisk::metrics::StartKind;
using whisk::workload::FunctionCatalog;

constexpr int kSetupRepetitions = 7;
constexpr int kReplayRepetitions = 5;
constexpr int kProtocolRounds = 5;

// Host seconds and exact counts accumulated over traced cells.
struct LayerTotals {
  double scenario_s = 0.0;
  std::size_t scenarios = 0;
  double deploy_s = 0.0;
  double submit_s = 0.0;
  double run_s = 0.0;
  double readout_s = 0.0;
  std::size_t cells = 0;
  std::size_t calls = 0;
  std::size_t events = 0;
  std::size_t cold_starts = 0;
  double daemon_wait_s = 0.0;
};

// CellWorkspace::run with a timer around every layer call: one warm engine
// and recycled collector storage across cells, scenarios memoized per pass.
class TracedWorkspace {
 public:
  void new_pass() { scenarios_.clear(); }

  // Returns the cell's response times; fills `records` when given.
  std::vector<double> run(const ExperimentSpec& spec,
                          const FunctionCatalog& cat, LayerTotals& t,
                          std::vector<CallRecord>* records = nullptr) {
    engine_.reset();
    const auto sched = spec.scheduler().normalized();
    whisk::cluster::ClusterParams cp;
    cp.invoker = sched.invoker;
    cp.policy = sched.policy;
    cp.balancer = sched.balancer;
    cp.deployment = spec.cluster();
    cp.node = spec.node_params();
    cp.workflow = spec.workflow();

    const whisk::workload::Scenario& scenario = scenario_for(spec, cat, t);

    auto t0 = Clock::now();
    whisk::cluster::Cluster cluster(
        engine_, cat, cp,
        whisk::sim::Rng(spec.seed())
            .fork(whisk::sim::hash_tag("cluster"))
            .next_u64());
    cluster.adopt_collector_storage(std::move(storage_));
    cluster.warmup();
    t.deploy_s += seconds_since(t0);

    t0 = Clock::now();
    cluster.run_scenario(scenario);
    t.submit_s += seconds_since(t0);

    t0 = Clock::now();
    t.events += engine_.run();
    t.run_s += seconds_since(t0);

    const auto& col = cluster.collector();
    WHISK_CHECK(col.size() == cluster.expected_calls(),
                "traced cell lost a call");
    t0 = Clock::now();
    std::vector<double> responses = col.response_times();
    const std::vector<double> stretches = col.stretches();
    const auto stats = cluster.total_stats();
    const auto groups = cluster.group_stats();
    const double max_completion = col.max_completion();
    t.readout_s += seconds_since(t0);
    WHISK_CHECK(stretches.size() == responses.size() && !groups.empty() &&
                    max_completion >= 0.0,
                "collector readout is inconsistent");

    ++t.cells;
    t.calls += col.size();
    t.cold_starts += stats.cold_starts;
    t.daemon_wait_s += stats.daemon_queue_wait_seconds;
    if (records != nullptr) *records = col.records();
    storage_ = cluster.release_collector_storage();
    return responses;
  }

 private:
  const whisk::workload::Scenario& scenario_for(const ExperimentSpec& spec,
                                                const FunctionCatalog& cat,
                                                LayerTotals& t) {
    const std::string key = spec.scenario().to_string() + '\x1f' +
                            std::to_string(spec.seed()) + '\x1f' +
                            std::to_string(spec.cores()) + '\x1f' +
                            std::to_string(spec.nodes()) + '\x1f' +
                            std::to_string(spec.intensity());
    auto it = scenarios_.find(key);
    if (it != scenarios_.end()) return it->second;
    const auto t0 = Clock::now();
    auto rng =
        whisk::sim::Rng(spec.seed()).fork(whisk::sim::hash_tag("scenario"));
    auto scenario = whisk::workload::make_scenario(
        spec.scenario(), spec.scenario_context(cat), rng);
    t.scenario_s += seconds_since(t0);
    ++t.scenarios;
    return scenarios_.emplace(key, std::move(scenario)).first->second;
  }

  whisk::sim::Engine engine_;
  whisk::metrics::Collector storage_;
  std::unordered_map<std::string, whisk::workload::Scenario> scenarios_;
};

// --- replays -----------------------------------------------------------------

// The ok calls one node served in one cell, in exec_start order, with the
// node's configuration.
struct NodeStream {
  bool baseline = false;  // stock invoker (else the paper's)
  std::string policy;
  whisk::node::NodeParams params;
  double return_s = 0.0;  // node -> client hop added to c(i)
  std::vector<CallRecord> calls;

  [[nodiscard]] double node_done(const CallRecord& r) const {
    return r.completion - return_s;
  }
};

std::vector<NodeStream> node_streams(const ExperimentSpec& spec,
                                     std::vector<CallRecord> records) {
  records.erase(std::remove_if(records.begin(), records.end(),
                               [](const CallRecord& r) {
                                 return r.disposition !=
                                            whisk::metrics::Disposition::kOk ||
                                        r.node < 0;
                               }),
                records.end());
  std::stable_sort(records.begin(), records.end(),
                   [](const CallRecord& a, const CallRecord& b) {
                     return a.exec_start < b.exec_start;
                   });
  const auto sched = spec.scheduler().normalized();
  std::vector<NodeStream> streams;
  for (const auto& r : records) {
    const auto node = static_cast<std::size_t>(r.node);
    if (node >= streams.size()) streams.resize(node + 1);
    streams[node].calls.push_back(r);
  }
  for (auto& s : streams) {
    s.baseline = sched.invoker == "baseline";
    s.policy = sched.policy;
    s.params = spec.node_params();
    s.params.keep_alive = spec.cluster().keep_alive;
    s.return_s = whisk::cluster::ClusterParams{}.response_return_s;
  }
  return streams;
}

// One event of a replay: `kind` orders same-time events.
struct Step {
  double time;
  int kind;
  std::size_t call;
};

// Replays `steps` on a standalone engine: through `apply` for the layer
// run, or with empty callbacks for the skeleton the layer cost is measured
// against.
template <typename Apply>
void drive(whisk::sim::Engine& engine, const std::vector<Step>& steps,
           Apply& apply, bool skeleton, std::size_t& sink) {
  for (const Step& s : steps) {
    if (skeleton) {
      engine.schedule_at(s.time, [&sink] { ++sink; });
    } else {
      engine.schedule_at(s.time, [&apply, &s] { apply(s); });
    }
  }
  engine.run();
}

std::vector<Step> sorted_steps(std::vector<Step> steps) {
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& a, const Step& b) {
                     return a.time < b.time ||
                            (a.time == b.time && a.kind < b.kind);
                   });
  return steps;
}

struct CpuCounts {
  std::size_t tasks = 0;
  std::size_t mismatch = 0;
  double corun = 0.0;
};

// Every recorded execution started at its exec_start on a fresh CpuSystem
// in the node's mode; a completion that lands anywhere but the recorded
// exec_end is a mismatch.
void replay_cpu(const NodeStream& s, const FunctionCatalog& cat,
                bool skeleton, CpuCounts* counts, std::size_t& sink) {
  whisk::sim::Engine engine;
  std::vector<Step> steps;
  for (std::size_t i = 0; i < s.calls.size(); ++i) {
    steps.push_back({s.calls[i].exec_start, 0, i});
  }
  std::vector<std::size_t> task_call;  // TaskId - 1 -> call
  whisk::os::CpuSystem cpu(
      engine,
      whisk::os::CpuParams{s.baseline ? whisk::os::ExecMode::kProportionalShare
                                      : whisk::os::ExecMode::kPinnedCore,
                           s.params.cores, s.params.context_switch_beta},
      [&](whisk::os::CpuSystem::TaskId id) {
        const auto& r = s.calls[task_call[static_cast<std::size_t>(id - 1)]];
        if (counts != nullptr && engine.now() != r.exec_end) {
          ++counts->mismatch;
        }
      });
  auto apply = [&](const Step& step) {
    const CallRecord& r = s.calls[step.call];
    const auto& fn = cat.spec(r.function);
    if (!s.baseline &&
        cpu.running() >= static_cast<std::size_t>(s.params.cores)) {
      if (counts != nullptr) ++counts->mismatch;  // would oversubscribe
      return;
    }
    (void)cpu.start(r.service, fn.cpu_fraction,
                    s.baseline ? fn.memory_mb / 256.0 : 1.0);
    task_call.push_back(step.call);
    if (counts != nullptr) {
      ++counts->tasks;
      counts->corun += static_cast<double>(cpu.running());
    }
  };
  drive(engine, steps, apply, skeleton, sink);
}

struct PoolCounts {
  std::size_t calls = 0;
  std::size_t miss = 0;
};

// The invokers' administrative warm-up, applied to a bare pool.
void warm_pool(whisk::container::ContainerPool& pool, const NodeStream& s,
               const FunctionCatalog& cat) {
  const double ancient = -60.0;
  int filled = 0;
  auto fill = [&](const whisk::workload::FunctionSpec& fn) {
    auto cid = pool.begin_creation(fn.memory_mb);
    if (!cid) return false;
    pool.finish_creation_busy(*cid, fn.id);
    pool.release(*cid, ancient + 0.001 * filled++);
    return true;
  };
  if (s.baseline) {
    for (const auto& fn : cat.specs()) {
      const double sv = fn.warm_median_ms() / 1000.0;
      const int want = std::clamp(
          static_cast<int>(s.params.cores *
                           (sv / (sv + s.params.warmup_creation_overlap_s))) +
              1,
          1, s.params.cores);
      for (int k = 0; k < want && fill(fn); ++k) {
      }
    }
    for (int k = 0; k < s.params.prewarm_target; ++k) {
      auto cid = pool.begin_creation(256.0);
      if (!cid) break;
      pool.finish_creation_prewarm(*cid);
    }
  } else {
    for (int round = 0; round < s.params.cores; ++round) {
      for (const auto& fn : cat.specs()) (void)fill(fn);
    }
  }
}

// Acquire at exec_start by the recorded start kind, release when the node
// delivered. A recorded warm start that finds no warm container is a miss.
void replay_pool(const NodeStream& s, const FunctionCatalog& cat,
                 bool skeleton, PoolCounts* counts, std::size_t& sink) {
  whisk::sim::Engine engine;
  std::vector<Step> steps;
  for (std::size_t i = 0; i < s.calls.size(); ++i) {
    steps.push_back({s.calls[i].exec_start, 1, i});
    steps.push_back({s.node_done(s.calls[i]), 0, i});
  }
  steps = sorted_steps(std::move(steps));
  whisk::container::ContainerPool pool(
      s.params.memory_limit_mb,
      whisk::container::make_keep_alive(s.params.keep_alive));
  warm_pool(pool, s, cat);
  std::vector<whisk::container::ContainerId> held(
      s.calls.size(), whisk::container::kInvalidContainer);
  auto create = [&](const CallRecord& r) {
    const double mem = cat.spec(r.function).memory_mb;
    if (pool.memory_free_mb() < mem) pool.evict_idle_until_free(mem);
    auto cid = pool.begin_creation(mem);
    if (!cid) return whisk::container::kInvalidContainer;
    pool.finish_creation_busy(*cid, r.function);
    return *cid;
  };
  auto apply = [&](const Step& step) {
    const CallRecord& r = s.calls[step.call];
    if (step.kind == 0) {
      if (held[step.call] != whisk::container::kInvalidContainer) {
        pool.release(held[step.call], engine.now());
      }
      return;
    }
    pool.sweep_expired(engine.now());
    auto& cid = held[step.call];
    if (r.start_kind == StartKind::kWarm) {
      if (auto warm = pool.acquire_warm(r.function)) {
        cid = *warm;
      } else {
        if (counts != nullptr) ++counts->miss;
        cid = create(r);
      }
    } else if (r.start_kind == StartKind::kPrewarm) {
      if (auto pre = pool.acquire_prewarm()) {
        cid = *pre;
        pool.assign_function(cid, r.function);
      } else {
        cid = create(r);
      }
      if (s.baseline && static_cast<int>(pool.prewarm_count()) <
                            s.params.prewarm_target) {
        if (auto fresh = pool.begin_creation(256.0)) {
          pool.finish_creation_prewarm(*fresh);
        }
      }
    } else {
      cid = create(r);
    }
    if (counts != nullptr) ++counts->calls;
  };
  drive(engine, steps, apply, skeleton, sink);
}

struct PolicyCounts {
  std::size_t calls = 0;
  double depth = 0.0;
};

// The paper invoker's policy stack: a priority from Policy::priority and
// RuntimeHistory at receive time, a PendingQueue pop at exec_start, and
// the runtime recorded at exec_end.
void replay_policy(const NodeStream& s, const FunctionCatalog& cat,
                   bool skeleton, PolicyCounts* counts, std::size_t& sink) {
  whisk::sim::Engine engine;
  std::vector<Step> steps;
  for (std::size_t i = 0; i < s.calls.size(); ++i) {
    steps.push_back({s.calls[i].received, 0, i});
    steps.push_back({s.calls[i].exec_start, 1, i});
    steps.push_back({s.calls[i].exec_end, 2, i});
  }
  steps = sorted_steps(std::move(steps));
  const auto policy = whisk::core::make_policy(s.policy, s.params.policy);
  whisk::core::RuntimeHistory history(s.params.history_window);
  history.register_fc_window(s.params.policy.fc_window);
  whisk::sim::Rng rng(0);
  const int samples = std::min(s.params.cores,
                               static_cast<int>(s.params.history_window));
  for (const auto& fn : cat.specs()) {
    for (int k = 0; k < samples; ++k) {
      history.record_runtime(
          fn.id, cat.sample_service(fn.id, rng),
          -55.0 + 30.0 * k / std::max(samples - 1, 1));
    }
  }
  whisk::core::PendingQueue<std::size_t> queue;
  auto apply = [&](const Step& step) {
    const CallRecord& r = s.calls[step.call];
    if (step.kind == 0) {
      const whisk::core::PolicyContext ctx{engine.now(), r.function,
                                           &history, 0.0};
      const double priority = policy->priority(ctx);
      history.record_arrival(r.function, engine.now());
      if (counts != nullptr) {
        ++counts->calls;
        counts->depth += static_cast<double>(queue.size());
      }
      queue.push(priority, step.call);
    } else if (step.kind == 1) {
      if (!queue.empty()) (void)queue.pop();
    } else {
      history.record_runtime(r.function, s.node_done(r) - r.exec_start,
                             engine.now());
    }
  };
  drive(engine, steps, apply, skeleton, sink);
}

// Median host seconds per layer replay minus its skeleton, over the
// streams; `first` receives the exact counts of one replay.
template <typename Replay, typename Counts>
double replay_seconds(const std::vector<NodeStream>& streams,
                      const FunctionCatalog& cat, Replay replay,
                      Counts& first) {
  std::vector<double> layer, skeleton;
  std::size_t sink = 0;
  for (int rep = 0; rep < kReplayRepetitions; ++rep) {
    for (const bool empty : {false, true}) {
      const auto t0 = Clock::now();
      for (const auto& s : streams) {
        replay(s, cat, empty, rep == 0 && !empty ? &first : nullptr, sink);
      }
      (empty ? skeleton : layer).push_back(seconds_since(t0));
    }
  }
  return std::max(0.0, median(layer) - median(skeleton));
}

double per(double total, std::size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

int run_traced(const Args& args) {
  print_host_context();
  const Setup setup = set_up(args.workload, args.seed, kSetupRepetitions);
  const Workload& w = setup.workload;
  const auto& grid = w.grid;
  const auto& cat = setup.catalog;

  // Untraced run_campaign passes alternate with traced passes.
  Checks checks;
  TracedWorkspace traced;
  LayerTotals t;
  double untraced_s = 0.0, traced_s = 0.0;
  std::size_t untraced_cells = 0, traced_cells = 0;
  Pass untraced;
  const auto start = WallClock::now();
  while (wall_seconds_since(start) < args.seconds || traced_cells == 0) {
    untraced = run_pass(setup);
    untraced_s += untraced.seconds;
    untraced_cells += untraced.result.cells.size();
    const bool first = checks.reference_csv.empty();
    checks.check_pass(untraced.result);
    if (first) checks.check_references(setup, untraced.result);

    std::vector<std::vector<double>> responses(grid.size());
    traced.new_pass();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      responses[i] = traced.run(grid.cell(i).spec, cat, t);
    }
    traced_s += seconds_since(t0);
    traced_cells += grid.size();
    checks.attempted += grid.size();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (responses[i] != untraced.result.cells[i].responses) {
        ++checks.failed;
      }
    }
  }

  // Rendering the cells CSV and JSONL of one pass.
  auto t0 = Clock::now();
  const std::size_t rendered =
      whisk::experiments::cells_csv(untraced.result).size() +
      whisk::experiments::cells_jsonl(untraced.result).size();
  const double render_s = seconds_since(t0);
  WHISK_CHECK(rendered > 0, "empty cells rendering");

  // Replays over the first replay_seeds cells of every group.
  std::vector<NodeStream> streams, policy_streams;
  std::size_t attempts = 0, ok_calls = 0;
  {
    TracedWorkspace capture;
    LayerTotals unused;
    const std::size_t per_group = grid.seeds_per_group();
    for (std::size_t g = 0; g < grid.group_count(); ++g) {
      for (std::size_t k = 0; k < std::min(w.replay_seeds, per_group); ++k) {
        const auto spec = grid.cell(g * per_group + k).spec;
        std::vector<CallRecord> records;
        (void)capture.run(spec, cat, unused, &records);
        for (const auto& r : records) {
          attempts += static_cast<std::size_t>(r.attempts);
          ok_calls += r.disposition == whisk::metrics::Disposition::kOk;
        }
        for (auto& s : node_streams(spec, std::move(records))) {
          if (!s.baseline) policy_streams.push_back(s);
          streams.push_back(std::move(s));
        }
      }
    }
  }
  CpuCounts cpu;
  PoolCounts pool;
  PolicyCounts policy;
  const double cpu_s = replay_seconds(streams, cat, replay_cpu, cpu);
  const double pool_s = replay_seconds(streams, cat, replay_pool, pool);
  const double policy_s =
      replay_seconds(policy_streams, cat, replay_policy, policy);

  // chaos-fleet: Engine::run of the armed cell minus a plain node:4 one.
  double subsystem_ns = 0.0;
  if (grid.fault_mode()) {
    std::vector<double> armed, plain;
    TracedWorkspace ws;
    for (int rep = 0; rep < 3; ++rep) {
      LayerTotals a, p;
      for (std::size_t g = 0; g < grid.group_count(); ++g) {
        const auto spec = grid.cell(g * grid.seeds_per_group()).spec;
        (void)ws.run(spec, cat, a);
        const auto bare = ExperimentSpec()
                              .scheduler(spec.scheduler())
                              .scenario(spec.scenario())
                              .cores(spec.cores())
                              .memory_mb(spec.memory_mb())
                              .seed(spec.seed())
                              .cluster(whisk::cluster::ClusterSpec::
                                           homogeneous(4));
        (void)ws.run(bare, cat, p);
      }
      armed.push_back(1e9 * per(a.run_s, a.calls));
      plain.push_back(1e9 * per(p.run_s, p.calls));
    }
    subsystem_ns = median(armed) - median(plain);
  }

  // sharded-sweep: run_distributed at 1 and at the workload's worker count
  // against run_campaign on one thread, interleaved. The protocol's cost is
  // CPU time (driver and worker against the one campaign thread); scaling
  // is about wall time, so it takes the wall clock.
  double protocol_us = 0.0, scaling_eff = 0.0, shard_attempts = 0.0;
  if (w.workers > 0) {
    std::vector<double> campaign, one_cpu, one, many;
    std::size_t shards = 0, spawns = 0;
    for (int round = 0; round < kProtocolRounds; ++round) {
      campaign.push_back(run_pass(setup).seconds);
      for (const int workers : {1, w.workers}) {
        whisk::experiments::DistributedOptions options;
        options.workers = workers;
        const double cpu0 = process_tree_cpu_s();
        const auto wall0 = WallClock::now();
        const auto batch =
            whisk::experiments::run_distributed(grid, cat, options);
        (workers == 1 ? one : many).push_back(wall_seconds_since(wall0));
        if (workers == 1) one_cpu.push_back(process_tree_cpu_s() - cpu0);
        checks.check_batch(batch);
        for (const auto& shard : batch.shards) {
          ++shards;
          spawns += static_cast<std::size_t>(shard.attempts);
        }
      }
    }
    const double cells = static_cast<double>(grid.size());
    protocol_us = 1e6 * (median(one_cpu) - median(campaign)) / cells;
    scaling_eff = median(one) / (w.workers * median(many));
    shard_attempts = per(static_cast<double>(spawns), shards);
  }

  const double untraced_cps = static_cast<double>(untraced_cells) / untraced_s;
  const double traced_cps = static_cast<double>(traced_cells) / traced_s;
  std::printf("replay: %zu node streams, %zu cpu tasks, %zu pool calls, "
              "%zu policy calls\n",
              streams.size(), cpu.tasks, pool.calls, policy.calls);
  print_result(
      checks.failed == 0, checks.attempted, checks.failed,
      {{"sim.run_ns_per_call", 1e9 * per(t.run_s, t.calls), "ns"},
       {"sim.events_per_call", per(static_cast<double>(t.events), t.calls),
        "count"},
       {"sim.ns_per_event", 1e9 * per(t.run_s, t.events), "ns"},
       {"os.cpu_ns_per_task", 1e9 * per(cpu_s, cpu.tasks), "ns"},
       {"os.corun_mean", per(cpu.corun, cpu.tasks), "count"},
       {"os.replay_mismatch", static_cast<double>(cpu.mismatch), "count"},
       {"container.pool_ns_per_call", 1e9 * per(pool_s, pool.calls), "ns"},
       {"container.cold_frac",
        per(static_cast<double>(t.cold_starts), t.calls), "frac"},
       {"container.daemon_wait_s_per_call", per(t.daemon_wait_s, t.calls),
        "s"},
       {"container.replay_miss", static_cast<double>(pool.miss), "count"},
       {"core.policy_ns_per_call", 1e9 * per(policy_s, policy.calls), "ns"},
       {"core.queue_depth_mean", per(policy.depth, policy.calls), "count"},
       {"cluster.deploy_us", 1e6 * per(t.deploy_s, t.cells), "us"},
       {"cluster.submit_us", 1e6 * per(t.submit_s, t.cells), "us"},
       {"cluster.attempts_per_ok_call",
        per(static_cast<double>(attempts), ok_calls), "ratio"},
       {"cluster.subsystem_ns_per_call", subsystem_ns, "ns"},
       {"workload.calls_per_cell",
        per(static_cast<double>(t.calls), t.cells), "count"},
       {"workload.scenario_us", 1e6 * per(t.scenario_s, t.scenarios), "us"},
       {"metrics.readout_us", 1e6 * per(t.readout_s, t.cells), "us"},
       {"metrics.render_us", 1e6 * per(render_s, grid.size()), "us"},
       {"experiments.protocol_us_per_cell", protocol_us, "us"},
       {"experiments.scaling_eff", scaling_eff, "ratio"},
       {"experiments.shard_attempts", shard_attempts, "count"},
       {"trace.overhead_pct", 100.0 * (untraced_cps / traced_cps - 1.0),
        "%"}});
  return 0;
}

}  // namespace perfbench
