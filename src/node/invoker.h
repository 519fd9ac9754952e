#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "container/docker_daemon.h"
#include "container/pool.h"
#include "metrics/record.h"
#include "node/params.h"
#include "os/cpu_system.h"
#include "sim/engine.h"
#include "sim/random.h"
#include "util/check.h"
#include "workload/function.h"
#include "workload/scenario.h"

namespace whisk::node {

// Counters every invoker maintains for the cold-start experiment (Fig. 2)
// and general telemetry. Start-kind counts cover only measured calls;
// warm-up is excluded, as in the paper. The daemon_* fields mirror the
// node's DockerDaemon station telemetry (synced on stats()), so daemon
// contention is visible per cell in sweeps without reaching into the
// invoker internals.
struct InvokerStats {
  std::size_t calls_received = 0;
  std::size_t calls_completed = 0;
  std::size_t calls_lost = 0;  // in flight when the node failed
  std::size_t cold_starts = 0;
  std::size_t prewarm_starts = 0;
  std::size_t warm_starts = 0;
  std::size_t evictions = 0;          // memory-pressure victims
  std::size_t expirations = 0;        // keep-alive lapses (ttl sweeps)
  double daemon_busy_seconds = 0.0;
  std::size_t daemon_max_queue_length = 0;
  double daemon_queue_wait_seconds = 0.0;      // sum over started ops
  double daemon_max_queue_wait_seconds = 0.0;  // single worst wait

  // Fold another node's (or cell's) counters into this rollup: counts and
  // seconds add, high-water marks take the max. The single spot that
  // knows which is which — every aggregator goes through here.
  void merge(const InvokerStats& other) {
    calls_received += other.calls_received;
    calls_completed += other.calls_completed;
    calls_lost += other.calls_lost;
    cold_starts += other.cold_starts;
    prewarm_starts += other.prewarm_starts;
    warm_starts += other.warm_starts;
    evictions += other.evictions;
    expirations += other.expirations;
    daemon_busy_seconds += other.daemon_busy_seconds;
    daemon_max_queue_length =
        std::max(daemon_max_queue_length, other.daemon_max_queue_length);
    daemon_queue_wait_seconds += other.daemon_queue_wait_seconds;
    daemon_max_queue_wait_seconds = std::max(
        daemon_max_queue_wait_seconds, other.daemon_max_queue_wait_seconds);
  }
};

// A worker node's resource manager. Two implementations:
//   * BaselineInvoker — stock OpenWhisk (Sec. III): FIFO handling, greedy
//     container creation bounded by memory, memory-proportional CPU shares.
//   * OurInvoker — the paper's approach (Sec. IV): policy priority queue,
//     busy containers capped at the core count, one core per container.
//
// Both run the same call pipeline, which lives here: the container pool,
// the Docker-daemon station and the CPU model; the dispatched call's
// management op on the daemon, a cold container's creation and the
// container's init delay; execution on the CPU; and the release, counting
// and delivery of the finished call. A subclass supplies only what the
// paper says differs: its queue and dispatch gate (on_submit, then
// launch()), the ExecMode it hands to the base, its management-op costs,
// its post-execution step (on_exec_end, which ends in complete()) and its
// warm-up.
//
// The invoker's `submit` is called at the moment the request is pulled from
// Kafka (r'(i)); `delivery` fires when the response leaves the node, with
// exec_* timestamps and the start kind filled in. The cluster layer adds the
// return-path latency and stamps c(i).
//
// Node lifecycle: a node is live until the cluster fails it via shutdown(),
// which returns every call received but not yet delivered (so the
// controller can re-submit them) and turns all of the node's future engine
// callbacks into no-ops. Draining is a cluster-level routing decision — a
// draining node simply stops receiving new submits and finishes its
// backlog through the normal path.
class Invoker {
 public:
  using DeliveryFn = std::function<void(const metrics::CallRecord&)>;

  Invoker(sim::Engine& engine, const workload::FunctionCatalog& catalog,
          NodeParams params, sim::Rng rng, DeliveryFn delivery,
          os::ExecMode exec_mode)
      : engine_(&engine),
        catalog_(&catalog),
        params_(params),
        rng_(rng),
        pool_(params.memory_limit_mb,
              container::make_keep_alive(params.keep_alive)),
        daemon_(engine),
        delivery_(std::move(delivery)),
        cpu_(engine,
             os::CpuParams{exec_mode, params.cores,
                           params.context_switch_beta},
             [this](os::CpuSystem::TaskId task) { on_exec_complete(task); }) {
  }

  virtual ~Invoker() = default;
  Invoker(const Invoker&) = delete;
  Invoker& operator=(const Invoker&) = delete;

  // Pre-populate the node as the paper's warm-up phase does: up to `cores`
  // containers per function (memory permitting) and a primed runtime
  // history. Administrative: costs no simulated time and no cold-start
  // counts.
  virtual void warmup() = 0;

  // Receive a call (now == r'(i)): count it, open its record and hand both
  // to the implementation's on_submit. With in-flight tracking enabled the
  // call is also remembered until delivery so a failure can return it.
  void submit(const workload::CallRequest& call);

  // Opt in to per-call in-flight bookkeeping (one hash-map insert + erase
  // per call). The cluster enables it only on deployments that schedule
  // drain/fail events, so the common churn-free run pays nothing.
  void enable_in_flight_tracking() { track_in_flight_ = true; }
  [[nodiscard]] bool tracks_in_flight() const { return track_in_flight_; }

  // Fail the node: every future callback of this invoker becomes a no-op
  // and the calls received but not yet delivered are returned (ordered by
  // call id) for the controller to re-submit. Requires in-flight tracking;
  // idempotent-hostile on purpose: failing a node twice is a caller bug
  // and aborts.
  [[nodiscard]] std::vector<workload::CallRequest> shutdown();

  [[nodiscard]] bool failed() const { return failed_; }
  // Calls received and not yet delivered (queued, executing, or in
  // post-processing). Always 0 when tracking is disabled.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

  [[nodiscard]] virtual std::size_t queue_length() const = 0;
  [[nodiscard]] virtual std::size_t executing() const = 0;
  [[nodiscard]] virtual std::string_view approach() const = 0;

  // The invoker's counters with the pool's and the daemon station's live
  // telemetry folded in.
  [[nodiscard]] const InvokerStats& stats() const;
  [[nodiscard]] const NodeParams& params() const { return params_; }

  // Introspection for tests and telemetry.
  [[nodiscard]] const container::ContainerPool& pool() const { return pool_; }
  [[nodiscard]] const container::DockerDaemon& daemon() const {
    return daemon_;
  }

  // Node index stamped into call records (set by the cluster layer).
  void set_node_index(int index) { node_index_ = index; }
  [[nodiscard]] int node_index() const { return node_index_; }

  // Straggler control (slow-node fault): every sampled duration — service
  // times and management ops alike — is multiplied by `factor`. 1.0 is
  // nominal speed; already-running executions keep their sampled length,
  // only durations drawn after the change are affected.
  void set_speed_factor(double factor) {
    WHISK_CHECK(factor >= 1.0, "speed factor must be >= 1");
    speed_factor_ = factor;
  }
  [[nodiscard]] double speed_factor() const { return speed_factor_; }

 protected:
  // A call from its dispatch to its delivery.
  struct ActiveCall {
    metrics::CallRecord record;
    container::ContainerId cid = container::kInvalidContainer;
    sim::SimTime dispatch_time = 0.0;  // left the node's pending queue
  };

  // Implementation hook behind submit(): `rec` is the call's freshly
  // opened record (id, function, node, release, received).
  virtual void on_submit(metrics::CallRecord rec,
                         const workload::CallRequest& call) = 0;

  // Post-execution hook: the call's CPU work ended (exec_end is stamped).
  // The implementation runs its post-processing and then completes the
  // call through complete().
  virtual void on_exec_end(ActiveCall active) = 0;

  // Start a dispatched call whose start kind and container are set: count
  // the start kind, run the management op `op` on the daemon station
  // (`urgent` ops run before queued normal ones), then finish a cold
  // container's creation, wait `init_delay` for the container's init and
  // execute the call on the CPU.
  void launch(ActiveCall active, double op, sim::SimTime init_delay,
              bool urgent);

  // Release the call's container, count and stamp the completion, drop
  // the call from the in-flight set and deliver the record to the cluster
  // layer. Callers check dead() first.
  void complete(ActiveCall& active);

  // True once shutdown() ran; every engine callback re-entering the
  // invoker checks this first and bails.
  [[nodiscard]] bool dead() const { return failed_; }

  // Calls executing on the CPU right now.
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }

  // Lognormal sample around `median` with spread `sigma`, stretched by the
  // current straggler factor.
  double sample_lognormal(double median, double sigma) {
    return scaled(rng_.lognormal(std::log(median), sigma));
  }

  // Init delay of a brand-new container (clamped lognormal) and of a
  // prewarm take-over.
  double cold_init_delay() {
    return std::clamp(sample_lognormal(params_.cold_init_median_s,
                                       params_.cold_init_sigma),
                      params_.cold_init_min_s, params_.cold_init_max_s);
  }
  double prewarm_init_delay() {
    return sample_lognormal(params_.prewarm_init_median_s,
                            params_.prewarm_init_sigma);
  }

  // Apply the straggler factor to a duration that bypasses
  // sample_lognormal (pre-sampled service times handed to the CPU). The
  // multiply-by-1.0 is IEEE-exact, so fault-free runs stay byte-identical.
  [[nodiscard]] double scaled(double duration) const {
    return duration * speed_factor_;
  }

  // Idle->loaded interpolated op duration for the current activity level.
  double ramped_op(double idle_median, double loaded_median, double sigma,
                   double activity) {
    const double f = params_.ramp(activity);
    const double median = idle_median + (loaded_median - idle_median) * f;
    return sample_lognormal(median, sigma);
  }

  sim::Engine* engine_;
  const workload::FunctionCatalog* catalog_;
  NodeParams params_;
  sim::Rng rng_;
  mutable InvokerStats stats_;
  int node_index_ = 0;
  double speed_factor_ = 1.0;
  container::ContainerPool pool_;
  container::DockerDaemon daemon_;

 private:
  void begin_exec(ActiveCall active);
  void on_exec_complete(os::CpuSystem::TaskId task);

  DeliveryFn delivery_;
  std::unordered_map<workload::CallId, workload::CallRequest> in_flight_;
  bool failed_ = false;
  bool track_in_flight_ = false;
  os::CpuSystem cpu_;
  std::unordered_map<os::CpuSystem::TaskId, ActiveCall> running_;
};

inline void Invoker::submit(const workload::CallRequest& call) {
  WHISK_CHECK(!failed_, "submit to a failed node");
  if (track_in_flight_) in_flight_.emplace(call.id, call);
  ++stats_.calls_received;
  metrics::CallRecord rec;
  rec.id = call.id;
  rec.function = call.function;
  rec.node = node_index_;
  rec.release = call.release;
  rec.received = engine_->now();
  on_submit(rec, call);
}

inline const InvokerStats& Invoker::stats() const {
  stats_.evictions = pool_.evictions();
  stats_.expirations = pool_.expirations();
  stats_.daemon_busy_seconds = daemon_.busy_seconds();
  stats_.daemon_max_queue_length = daemon_.max_queue_length();
  stats_.daemon_queue_wait_seconds = daemon_.queue_wait_seconds();
  stats_.daemon_max_queue_wait_seconds = daemon_.max_queue_wait_seconds();
  return stats_;
}

inline void Invoker::launch(ActiveCall active, double op,
                            sim::SimTime init_delay, bool urgent) {
  switch (active.record.start_kind) {
    case metrics::StartKind::kWarm:
      ++stats_.warm_starts;
      break;
    case metrics::StartKind::kPrewarm:
      ++stats_.prewarm_starts;
      break;
    case metrics::StartKind::kCold:
      ++stats_.cold_starts;
      break;
  }
  daemon_.submit(
      op,
      [this, active = std::move(active), init_delay]() mutable {
        if (dead()) return;
        if (active.record.start_kind == metrics::StartKind::kCold) {
          pool_.finish_creation_busy(active.cid, active.record.function);
        }
        if (init_delay > 0.0) {
          engine_->schedule_in(init_delay,
                               [this, active = std::move(active)]() mutable {
                                 begin_exec(std::move(active));
                               });
        } else {
          begin_exec(std::move(active));
        }
      },
      urgent);
}

inline void Invoker::begin_exec(ActiveCall active) {
  if (dead()) return;
  active.record.exec_start = engine_->now();
  active.record.service =
      catalog_->sample_service(active.record.function, rng_);
  const auto& spec = catalog_->spec(active.record.function);
  // OpenWhisk assigns CPU shares proportional to container memory; with
  // homogeneous 256 MB actions the weights are equal. Pinned-core mode
  // ignores the weight.
  const auto task = cpu_.start(scaled(active.record.service),
                               spec.cpu_fraction, spec.memory_mb / 256.0);
  running_.emplace(task, std::move(active));
}

inline void Invoker::on_exec_complete(os::CpuSystem::TaskId task) {
  if (dead()) return;
  auto it = running_.find(task);
  WHISK_CHECK(it != running_.end(), "completion for unknown task");
  ActiveCall active = std::move(it->second);
  running_.erase(it);
  active.record.exec_end = engine_->now();
  on_exec_end(std::move(active));
}

inline void Invoker::complete(ActiveCall& active) {
  pool_.release(active.cid, engine_->now());
  ++stats_.calls_completed;
  active.record.completion = engine_->now();
  if (track_in_flight_) in_flight_.erase(active.record.id);
  delivery_(active.record);
}

inline std::vector<workload::CallRequest> Invoker::shutdown() {
  WHISK_CHECK(!failed_, "node failed twice");
  WHISK_CHECK(track_in_flight_,
              "shutdown without in-flight tracking enabled");
  failed_ = true;
  std::vector<workload::CallRequest> lost;
  lost.reserve(in_flight_.size());
  for (const auto& [id, call] : in_flight_) lost.push_back(call);
  std::sort(lost.begin(), lost.end(),
            [](const workload::CallRequest& a,
               const workload::CallRequest& b) { return a.id < b.id; });
  stats_.calls_lost += lost.size();
  in_flight_.clear();
  return lost;
}

}  // namespace whisk::node
