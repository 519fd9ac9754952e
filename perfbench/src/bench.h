// Shared pieces of whisk's benchmark: the workload definitions, the result
// line, timing helpers and the correctness checks both the end-to-end and
// the traced runs apply. Everything here drives the library through its
// public API only.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/campaign.h"
#include "experiments/distributed.h"
#include "experiments/runner.h"
#include "workload/function.h"

namespace perfbench {

// The benchmark's clock: CPU time of the calling thread. Every timed
// in-process region runs on this one thread, so on a dedicated core the
// clock reads as wall time. On a shared virtual machine it leaves out the
// time the hypervisor gives this core to other guests (steal time), which
// can double a wall-clock run.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  [[nodiscard]] static time_point now() noexcept;
};

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds of this process plus its reaped children: the clock for
// work that fork-mode workers share with the driver.
[[nodiscard]] double process_tree_cpu_s();

// Wall time, which only sets how long a run measures.
using WallClock = std::chrono::steady_clock;
[[nodiscard]] inline double wall_seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// One workload: the grid a single pass runs, plus how it runs.
struct Workload {
  whisk::experiments::CampaignSpec grid;  // normalized
  // Fork-mode worker processes per batch; 0 = in-process run_campaign.
  int workers = 0;
  // Seeds per group whose cells the traced run replays layer by layer.
  std::size_t replay_seeds = 2;
};

// Exits with a diagnostic on an unknown name. The seed only picks the
// grid's seed axis.
[[nodiscard]] Workload make_workload(std::string_view name,
                                     std::uint64_t seed);

// Mean |simulated / paper - 1| x 100 of the pooled average response time
// and average stretch, over the groups of `result` that are Table III rows.
struct Fidelity {
  double r_err_pct = 0.0;
  double s_err_pct = 0.0;
  std::size_t rows = 0;
};
[[nodiscard]] Fidelity table3_error(
    const whisk::experiments::CampaignResult& result);

// For workloads that cover no Table III row themselves: the grids of
// paper-baseline and paper-ours in one, on 16 seeds picked by `seed`.
[[nodiscard]] Workload fidelity_anchor(std::uint64_t seed);

// The catalog, the grid expansion and a warm-up that runs the first cell
// of every group through run_experiment (and, for distributed workloads,
// one batch). The warm-up results are the references the field-by-field
// check compares campaign rows against.
struct Setup {
  whisk::workload::FunctionCatalog catalog;
  Workload workload;
  std::vector<whisk::experiments::RunResult> references;  // one per group
  double seconds = 0.0;  // median over the repetitions
};
// Sets up at least `repetitions` times, and until `min_seconds` of wall
// time have passed.
[[nodiscard]] Setup set_up(std::string_view name, std::uint64_t seed,
                           int repetitions, double min_seconds = 0.0);

// One in-process pass over the grid on one run_campaign thread; records
// the host CPU time of every cell (closed loop: a cell starts when the
// previous one finished).
struct Pass {
  whisk::experiments::CampaignResult result;
  std::vector<double> cell_s;
  double seconds = 0.0;
};
[[nodiscard]] Pass run_pass(const Setup& setup);

// Correctness bookkeeping shared by every run mode. Each check counts the
// cells it fails into `failed`.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string reference_csv;  // first pass's cells CSV
  std::string reference_jsonl;

  // Conservation (ok + shed + dropped = calls) of every cell, plus a
  // row-by-row comparison against the first pass's cells CSV.
  void check_pass(const whisk::experiments::CampaignResult& result);
  // A fresh run_experiment of every group's first cell against its row.
  void check_references(const Setup& setup,
                        const whisk::experiments::CampaignResult& result);
  // Merged distributed output against the in-process reference, byte for
  // byte; shard re-spawns count as failed operations.
  void check_batch(const whisk::experiments::DistributedResult& batch);
};

[[nodiscard]] std::uint64_t fnv1a(std::string_view text);
// Peak resident set of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double median(std::vector<double> xs);
// The sample a quarter of the way up the sorted series.
[[nodiscard]] double lower_quartile(std::vector<double> xs);

// A per-sample series reduced to its median and the highest
// percentile that leaves at least ten samples beyond it.
struct Tail {
  double p50 = 0.0;
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> xs);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Host context lines (nproc, compiler, build type) on stdout.
void print_host_context();
// The result line: the last line of stdout.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics);

// The two run modes (end_to_end.cpp, layers.cpp).
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};
int run_end_to_end(const Args& args);
int run_traced(const Args& args);

}  // namespace perfbench
