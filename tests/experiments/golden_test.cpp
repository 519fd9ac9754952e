// Golden outputs: committed 64-bit FNV-1a digests of the per-call metrics
// CSV for a fixed set of cells. Any change to simulated behaviour — an RNG
// draw moved, an engine or daemon submission reordered, a float summed in
// a different order — changes a digest. A refactor that claims "same
// behaviour" must leave this file untouched; a deliberate model change
// regenerates the digests and says why.
//
// To regenerate, run this binary: a mismatch prints the actual digest.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "experiments/experiment_spec.h"
#include "experiments/runner.h"
#include "metrics/csv.h"
#include "workload/function.h"

namespace whisk::experiments {
namespace {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, value);
  return buf;
}

std::string digest_of(const ExperimentSpec& spec) {
  const auto cat = workload::sebs_catalog();
  const auto result = run_experiment(spec, cat);
  return hex(fnv1a64(metrics::to_csv(result.records, cat)));
}

struct PaperCell {
  const char* scheduler;
  std::uint64_t seed;
  const char* digest;
};

// The paper's single-node burst (Sec. V): 10 cores, intensity 30.
constexpr PaperCell kPaperCells[] = {
    {"baseline", 0, "0xc112041a5981cbc7"},
    {"baseline", 1, "0xf8ae364c1a38bd94"},
    {"baseline", 2, "0x2a10e0778f95e0f1"},
    {"baseline", 3, "0x4de48594dff32f19"},
    {"baseline", 4, "0xaa5983e35fe9ca47"},
    {"ours/fifo", 0, "0xef7bd153b8bf5c94"},
    {"ours/fifo", 1, "0x815d9e2d77bcc862"},
    {"ours/fifo", 2, "0x1b22e309113003a2"},
    {"ours/fifo", 3, "0x0e31a1c369064195"},
    {"ours/fifo", 4, "0xd7d7808aba118212"},
    {"ours/sept", 0, "0xbced3a35a9e77bec"},
    {"ours/sept", 1, "0x45f2c62859661a4c"},
    {"ours/sept", 2, "0x422debee4fda5e3b"},
    {"ours/sept", 3, "0xa2d4fdd120ea6aa2"},
    {"ours/sept", 4, "0x735d9156eb583429"},
    {"ours/fc", 0, "0x7f2c69dcdc2a3357"},
    {"ours/fc", 1, "0x27246bbaa99204b7"},
    {"ours/fc", 2, "0x495c5257517281ea"},
    {"ours/fc", 3, "0xb5101975eb013387"},
    {"ours/fc", 4, "0xd4fd68e424c31f7d"},
};

TEST(Golden, PaperBurstCells) {
  for (const PaperCell& cell : kPaperCells) {
    const auto spec = ExperimentSpec()
                          .scheduler(cell.scheduler)
                          .cores(10)
                          .intensity(30)
                          .seed(cell.seed);
    EXPECT_EQ(digest_of(spec), cell.digest)
        << cell.scheduler << " seed " << cell.seed;
  }
}

// A 4-node fleet under crash-restart faults with the resilience layer's
// timeout re-drive: node shutdown, in-flight re-submission and invoker
// re-creation all feed the digest.
TEST(Golden, ChaosFleetCells) {
  struct ChaosCell {
    const char* scheduler;
    const char* digest;
  };
  constexpr ChaosCell kChaosCells[] = {
      {"ours/sept", "0x54109f8bc26d6c7d"},
      {"baseline", "0x9cfceb06a782a739"},
  };
  for (const ChaosCell& cell : kChaosCells) {
    const auto spec =
        ExperimentSpec()
            .scheduler(cell.scheduler)
            .intensity(30)
            .seed(0)
            .cluster("node:4|resilience=timeout-s=8&max-attempts=4")
            .faults("crash-restart?mtbf-s=60&mttr-s=10");
    EXPECT_EQ(digest_of(spec), cell.digest) << cell.scheduler;
  }
}

}  // namespace
}  // namespace whisk::experiments
