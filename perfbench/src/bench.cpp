#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <sys/resource.h>
#include <time.h>

#include "core/policy.h"
#include "experiments/paper_data.h"
#include "util/check.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using whisk::experiments::CampaignResult;
using whisk::experiments::CampaignSpec;
using whisk::experiments::CellResult;
using whisk::experiments::RunResult;

namespace {

constexpr const char* kPolicies =
    "ours/fifo,ours/sept,ours/eect,ours/rect,ours/fc";
constexpr const char* kChaosCluster =
    "node:4?min-nodes=2&max-nodes=8|resilience=timeout-s=20&max-attempts=4&"
    "retry-budget=1&hedge-p=0.95&breaker-failures=3&max-queue=256";
constexpr const char* kChaosFaults =
    "crash-restart?mtbf-s=120&mttr-s=10+slow-node?mtbf-s=60&factor=3+"
    "lost-completion?probability=0.02";

std::vector<std::uint64_t> seed_axis(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = 0; k < n; ++k) seeds.push_back(seed * 1000 + k);
  return seeds;
}

// Table III labels a scheduler: "baseline", or the policy's figure label.
std::string table3_label(const whisk::experiments::SchedulerSpec& s) {
  return s.invoker == "baseline" ? "baseline"
                                 : whisk::core::policy_label(s.policy);
}

bool same_stats(const whisk::node::InvokerStats& a,
                const whisk::node::InvokerStats& b) {
  return a.calls_received == b.calls_received &&
         a.calls_completed == b.calls_completed &&
         a.calls_lost == b.calls_lost && a.cold_starts == b.cold_starts &&
         a.prewarm_starts == b.prewarm_starts &&
         a.warm_starts == b.warm_starts && a.evictions == b.evictions &&
         a.expirations == b.expirations &&
         a.daemon_busy_seconds == b.daemon_busy_seconds &&
         a.daemon_max_queue_length == b.daemon_max_queue_length &&
         a.daemon_queue_wait_seconds == b.daemon_queue_wait_seconds &&
         a.daemon_max_queue_wait_seconds == b.daemon_max_queue_wait_seconds;
}

// Every field a campaign row is built from, compared exactly.
bool same_cell(const RunResult& run, const CellResult& cell) {
  if (run.groups.size() != cell.groups.size()) return false;
  for (std::size_t g = 0; g < run.groups.size(); ++g) {
    const auto& a = run.groups[g];
    const auto& b = cell.groups[g];
    if (a.name != b.name || a.nodes != b.nodes || a.active != b.active ||
        !same_stats(a.stats, b.stats)) {
      return false;
    }
  }
  return run.calls == cell.calls && run.responses == cell.responses &&
         run.stretches == cell.stretches &&
         run.max_completion == cell.max_completion &&
         same_stats(run.stats, cell.stats) &&
         run.resubmissions == cell.resubmissions &&
         run.node_hours == cell.node_hours && run.cost_usd == cell.cost_usd &&
         run.slo_violations == cell.slo_violations &&
         run.scale_ups == cell.scale_ups &&
         run.scale_downs == cell.scale_downs &&
         run.faults_injected == cell.faults_injected &&
         run.retries == cell.retries && run.timeouts == cell.timeouts &&
         run.hedges_won == cell.hedges_won &&
         run.shed_calls == cell.shed_calls &&
         run.dropped_calls == cell.dropped_calls &&
         run.breaker_opens == cell.breaker_opens &&
         run.unavailability_s == cell.unavailability_s &&
         run.goodput == cell.goodput && run.workflows == cell.workflows &&
         run.wf_e2e_p99 == cell.wf_e2e_p99 &&
         run.wf_critical_path_s == cell.wf_critical_path_s &&
         run.wf_slack_s == cell.wf_slack_s;
}

double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> out;
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    out.push_back(text.substr(0, end));
    if (end == std::string_view::npos) break;
    text.remove_prefix(end + 1);
  }
  return out;
}

// Rows (header excluded) that differ between two renderings of one grid.
std::size_t differing_rows(std::string_view a, std::string_view b,
                           std::size_t header_lines) {
  const auto la = lines_of(a);
  const auto lb = lines_of(b);
  const std::size_t n = std::max(la.size(), lb.size());
  std::size_t diff = 0;
  for (std::size_t i = header_lines; i < n; ++i) {
    if (i >= la.size() || i >= lb.size() || la[i] != lb[i]) ++diff;
  }
  return diff;
}

// The paper's single-node grid: the schedulers at intensities 60 and 120
// on 5, 10 and 20 cores, every row of which is in Table III.
Workload paper_workload(const std::string& schedulers, std::uint64_t seed,
                        std::size_t seeds) {
  Workload w;
  CampaignSpec spec = CampaignSpec::parse(
      "schedulers=" + schedulers +
      "; scenarios=uniform?intensity=60,uniform?intensity=120; "
      "cores=5,10,20");
  spec.seeds = seed_axis(seed, seeds);
  w.grid = spec.normalized();
  return w;
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "paper-baseline") {
    return paper_workload("baseline", seed, 80);
  }
  if (name == "paper-ours") {
    return paper_workload(kPolicies, seed, 20);
  }
  Workload w;
  std::string grid;
  std::size_t seeds = 0;
  if (name == "chaos-fleet") {
    grid = std::string(
               "schedulers=ours/sept/weighted-least-loaded,"
               "ours/critical-path/least-loaded; "
               "scenarios=uniform?intensity=10; cores=10; clusters=") +
           kChaosCluster +
           "; autoscalers=target-util?tick-s=1&cooldown-s=1; faults=" +
           kChaosFaults + "; workflows=fanout?width=4&join=3,chain?stages=3";
    seeds = 32;
  } else if (name == "sharded-sweep") {
    w.workers = 2;
    grid = "schedulers=ours/sept,baseline; scenarios=uniform?intensity=5; "
           "cores=4";
    seeds = 150;
    w.replay_seeds = 150;
  } else {
    std::fprintf(stderr,
                 "unknown workload \"%.*s\"; workloads: paper-baseline "
                 "paper-ours chaos-fleet sharded-sweep\n",
                 static_cast<int>(name.size()), name.data());
    std::exit(2);
  }
  CampaignSpec spec = CampaignSpec::parse(grid);
  spec.seeds = seed_axis(seed, seeds);
  w.grid = spec.normalized();
  return w;
}

Workload fidelity_anchor(std::uint64_t seed) {
  return paper_workload(std::string("baseline,") + kPolicies, seed, 16);
}

Fidelity table3_error(const CampaignResult& result) {
  Fidelity f;
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    const auto coords = result.spec.coordinates(result.global_group(g) *
                                                result.spec.seeds_per_group());
    const auto& scenario = result.spec.scenarios[coords.scenario_i];
    if (scenario.name != "uniform") continue;
    const auto row = whisk::experiments::paper::find_single_node(
        result.spec.cores[coords.cores_i],
        static_cast<int>(scenario.number("intensity", 0.0)),
        table3_label(result.spec.schedulers[coords.scheduler_i]));
    if (!row) continue;
    const auto cells = result.group(g);
    const double r = mean(whisk::experiments::pooled_responses(cells));
    const double s = mean(whisk::experiments::pooled_stretches(cells));
    f.r_err_pct += std::abs(r / row->r_avg - 1.0) * 100.0;
    f.s_err_pct += std::abs(s / row->s_avg - 1.0) * 100.0;
    ++f.rows;
  }
  if (f.rows > 0) {
    f.r_err_pct /= static_cast<double>(f.rows);
    f.s_err_pct /= static_cast<double>(f.rows);
  }
  return f;
}

Setup set_up(std::string_view name, std::uint64_t seed, int repetitions,
             double min_seconds) {
  std::vector<double> times;
  Setup setup{whisk::workload::sebs_catalog(), {}, {}, 0.0};
  const auto start = WallClock::now();
  for (int rep = 0;
       rep < repetitions || wall_seconds_since(start) < min_seconds; ++rep) {
    const double t0 = process_tree_cpu_s();
    setup.catalog = whisk::workload::sebs_catalog();
    setup.workload = make_workload(name, seed);
    const CampaignSpec& grid = setup.workload.grid;
    std::size_t expanded = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      expanded += grid.cell(i).index == i ? 1 : 0;
    }
    WHISK_CHECK(expanded == grid.size(), "grid expansion lost a cell");
    setup.references.clear();
    for (std::size_t g = 0; g < grid.group_count(); ++g) {
      setup.references.push_back(whisk::experiments::run_experiment(
          grid.cell(g * grid.seeds_per_group()).spec, setup.catalog));
    }
    if (setup.workload.workers > 0) {
      whisk::experiments::DistributedOptions options;
      options.workers = setup.workload.workers;
      (void)whisk::experiments::run_distributed(grid, setup.catalog, options);
    }
    times.push_back(process_tree_cpu_s() - t0);
  }
  setup.seconds = median(times);
  return setup;
}

Pass run_pass(const Setup& setup) {
  Pass pass;
  pass.cell_s.reserve(setup.workload.grid.size());
  whisk::experiments::CampaignOptions options;
  options.threads = 1;
  auto last = Clock::now();
  options.progress = [&](std::size_t, std::size_t) {
    const auto now = Clock::now();
    pass.cell_s.push_back(std::chrono::duration<double>(now - last).count());
    last = now;
  };
  const auto t0 = Clock::now();
  last = t0;
  pass.result = whisk::experiments::run_campaign(setup.workload.grid,
                                                 setup.catalog, options);
  pass.seconds = seconds_since(t0);
  return pass;
}

void Checks::check_pass(const CampaignResult& result) {
  attempted += result.cells.size();
  for (const auto& cell : result.cells) {
    if (cell.ok_calls + cell.shed_calls + cell.dropped_calls != cell.calls) {
      ++failed;
    }
  }
  std::string csv = whisk::experiments::cells_csv(result);
  if (reference_csv.empty()) {
    reference_csv = std::move(csv);
    reference_jsonl = whisk::experiments::cells_jsonl(result);
  } else {
    failed += differing_rows(csv, reference_csv, 1);
  }
}

void Checks::check_references(const Setup& setup,
                              const CampaignResult& result) {
  const std::size_t per = result.spec.seeds_per_group();
  for (std::size_t g = 0; g < setup.references.size(); ++g) {
    if (!same_cell(setup.references[g], result.cells[g * per])) ++failed;
  }
}

void Checks::check_batch(
    const whisk::experiments::DistributedResult& batch) {
  attempted += batch.spec.size();
  failed += differing_rows(batch.cells_csv, reference_csv, 1);
  failed += differing_rows(batch.cells_jsonl, reference_jsonl, 0);
  for (const auto& shard : batch.shards) {
    failed += static_cast<std::size_t>(shard.attempts - 1);
  }
}

Clock::time_point Clock::now() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return time_point(std::chrono::seconds(ts.tv_sec) +
                    std::chrono::nanoseconds(ts.tv_nsec));
}

double process_tree_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9 + sec(children.ru_utime) +
         sec(children.ru_stime);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  WHISK_CHECK(f != nullptr, "cannot read /proc/self/status");
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double median(std::vector<double> xs) {
  WHISK_CHECK(!xs.empty(), "median of an empty series");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double lower_quartile(std::vector<double> xs) {
  WHISK_CHECK(!xs.empty(), "quartile of an empty series");
  const auto q = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 4);
  std::nth_element(xs.begin(), q, xs.end());
  return *q;
}

Tail tail_of(std::vector<double> xs) {
  WHISK_CHECK(!xs.empty(), "tail of an empty series");
  Tail t;
  t.samples = xs.size();
  t.p50 = median(xs);
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  // The sample with exactly ten beyond it; the maximum when there are
  // fewer than eleven samples.
  const std::size_t k = n > 10 ? n - 11 : n - 1;
  t.value = xs[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

void print_host_context() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("host: nproc=%d compiler=\"%s\" build_type=%s\n",
              whisk::util::ThreadPool::hardware_threads(), compiler,
              PERFBENCH_BUILD_TYPE);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    WHISK_CHECK(std::isfinite(metrics[i].value), "non-finite metric");
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
