// The untraced run: every end-to-end metric of one workload.
//
// In-process workloads repeat one run_campaign pass over the grid (one
// thread, closed loop) until the run's wall seconds are spent; sharded-sweep
// repeats passes of run_distributed batches the same way. In-process, each
// cell's time is the lower quartile of its times over the passes, and
// every timing metric is taken over those. On sharded-sweep each pass
// gives its throughput and per-cell metrics, and the median over passes
// is reported.
// Times are CPU times (bench.h's Clock; on sharded-sweep the driver's and
// the workers'), so that a run a busy host steals from reads as the work
// it did.
// Correctness checks run between passes, outside the timed region.

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "bench.h"

namespace perfbench {
namespace {

// setup_s is the median of at least 15 set-ups spread over a second or
// more, so that it does not rest on one moment of the host.
constexpr int kSetupRepetitions = 15;
constexpr double kSetupSeconds = 1.0;
constexpr int kBatchesPerPass = 100;
// Enough passes for a per-cell quartile, however long a pass takes.
constexpr std::size_t kMinPasses = 4;

// Mean over the grid's groups of each group's median cell time: the
// groups' cells differ in size by up to an order of magnitude, so the
// median of all cells would sit between two groups and jump between them.
double mean_group_median(const std::vector<double>& cell_ms,
                         std::size_t seeds_per_group) {
  double sum = 0.0;
  std::size_t groups = 0;
  for (std::size_t b = 0; b < cell_ms.size(); b += seeds_per_group) {
    sum += median({cell_ms.begin() + static_cast<std::ptrdiff_t>(b),
                   cell_ms.begin() +
                       static_cast<std::ptrdiff_t>(b + seeds_per_group)});
    ++groups;
  }
  return sum / static_cast<double>(groups);
}

}  // namespace

int run_end_to_end(const Args& args) {
  print_host_context();
  const Setup setup = set_up(args.workload, args.seed, kSetupRepetitions,
                             kSetupSeconds);
  const Workload& w = setup.workload;

  Checks checks;
  double cells_per_s = 0.0;
  double cell_ms_p50 = 0.0;
  Tail tail;
  std::size_t passes = 0;
  double rss_mb = 0.0;
  Fidelity fidelity;

  if (w.workers == 0) {
    // cell_ms[i][p]: host CPU ms of cell i in pass p.
    std::vector<std::vector<double>> cell_ms(w.grid.size());
    const auto start = WallClock::now();
    while (wall_seconds_since(start) < args.seconds || passes < kMinPasses) {
      Pass pass = run_pass(setup);
      ++passes;
      for (std::size_t i = 0; i < cell_ms.size(); ++i) {
        cell_ms[i].push_back(pass.cell_s[i] * 1e3);
      }
      const bool first = checks.reference_csv.empty();
      checks.check_pass(pass.result);
      if (first) {
        checks.check_references(setup, pass.result);
        fidelity = table3_error(pass.result);
      }
    }
    // Contention from other tenants of the host only ever adds time to a
    // cell, and it comes and goes within a pass; the lower quartile of a
    // cell's passes is its time with the least of it.
    std::vector<double> typical;
    double total_ms = 0.0;
    for (const auto& ms : cell_ms) {
      typical.push_back(lower_quartile(ms));
      total_ms += typical.back();
    }
    cells_per_s = 1e3 * static_cast<double>(typical.size()) / total_ms;
    cell_ms_p50 = mean_group_median(typical, w.grid.seeds_per_group());
    tail = tail_of(std::move(typical));
  } else {
    // The in-process reference every merged batch must reproduce.
    const Pass reference = run_pass(setup);
    checks.check_pass(reference.result);
    checks.check_references(setup, reference.result);
    whisk::experiments::DistributedOptions options;
    options.workers = w.workers;
    // A batch's cells run in parallel, so a batch yields one sample: the
    // CPU time of the driver and its workers per cell. A pass is a fixed
    // number of batches.
    std::vector<double> throughputs, p50s, tails;
    const auto start = WallClock::now();
    while (wall_seconds_since(start) < args.seconds || passes < kMinPasses) {
      ++passes;
      std::vector<double> cell_ms;
      double pass_s = 0.0;
      for (int b = 0; b < kBatchesPerPass; ++b) {
        const double t0 = process_tree_cpu_s();
        const auto batch = whisk::experiments::run_distributed(
            w.grid, setup.catalog, options);
        const double s = process_tree_cpu_s() - t0;
        pass_s += s;
        cell_ms.push_back(s * 1e3 / static_cast<double>(batch.spec.size()));
        rss_mb = std::max(
            rss_mb, static_cast<double>(batch.peak_worker_rss_kb) / 1024.0);
        checks.check_batch(batch);
      }
      throughputs.push_back(
          static_cast<double>(kBatchesPerPass * w.grid.size()) / pass_s);
      tail = tail_of(std::move(cell_ms));
      p50s.push_back(tail.p50);
      tails.push_back(tail.value);
    }
    cells_per_s = median(throughputs);
    cell_ms_p50 = median(p50s);
    tail.value = median(tails);
  }

  rss_mb = std::max(rss_mb, peak_rss_mb());
  const char* fidelity_source = "workload's own grid";
  if (fidelity.rows == 0) {
    whisk::experiments::CampaignOptions options;
    options.threads = 1;
    fidelity = table3_error(whisk::experiments::run_campaign(
        fidelity_anchor(args.seed).grid, setup.catalog, options));
    fidelity_source = "paper-baseline and paper-ours grids";
  }

  std::printf("digest: cells_csv fnv1a64=%016" PRIx64 " cells=%zu\n",
              fnv1a(checks.reference_csv), w.grid.size());
  if (w.workers > 0) {
    std::printf("cell_ms_tail: p%.3f of %zu batch per-cell means per pass, "
                "median of %zu passes\n",
                tail.percentile, tail.samples, passes);
  } else {
    std::printf("cell_ms_tail: p%.3f of %zu cells, each its lower quartile "
                "over %zu passes\n",
                tail.percentile, tail.samples, passes);
  }
  std::printf("fidelity: %zu Table III rows from the %s\n", fidelity.rows,
              fidelity_source);

  const double ok_frac =
      1.0 - static_cast<double>(checks.failed) /
                static_cast<double>(std::max<std::size_t>(checks.attempted, 1));
  print_result(checks.failed == 0, checks.attempted, checks.failed,
               {{"cells_per_s", cells_per_s, "1/s"},
                {"cell_ms_p50", cell_ms_p50, "ms"},
                {"cell_ms_tail", tail.value, "ms"},
                {"setup_s", setup.seconds, "s"},
                {"peak_rss_mb", rss_mb, "MB"},
                {"ok_cell_frac", ok_frac, "frac"},
                {"paper_r_err_pct", fidelity.r_err_pct, "%"},
                {"paper_s_err_pct", fidelity.s_err_pct, "%"}});
  return 0;
}

}  // namespace perfbench
