#include "node/our_invoker.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/policy_registry.h"

namespace whisk::node {
namespace {

// Drives an OurInvoker directly (no cluster/network layers), capturing the
// delivered records.
class OurInvokerTest : public ::testing::Test {
 protected:
  OurInvokerTest() : catalog_(workload::sebs_catalog()) {}

  std::unique_ptr<OurInvoker> make(std::string_view policy,
                                   NodeParams params = {}) {
    auto inv = std::make_unique<OurInvoker>(
        engine_, catalog_, params, sim::Rng(42),
        [this](const metrics::CallRecord& rec) { delivered_.push_back(rec); },
        policy);
    return inv;
  }

  void submit_at(Invoker& inv, sim::SimTime at, workload::FunctionId fn,
                 workload::CallId id) {
    engine_.schedule_at(at, [&inv, fn, id, at] {
      inv.submit(workload::CallRequest{id, fn, at});
    });
  }

  // Conservation after a drained run: every received call completed with
  // exactly one start kind, nothing is left queued or executing, and every
  // container went back to the pool.
  void expect_drained(const Invoker& inv) {
    const auto& s = inv.stats();
    EXPECT_EQ(s.calls_received, s.calls_completed);
    EXPECT_EQ(s.calls_completed, delivered_.size());
    EXPECT_EQ(s.cold_starts + s.prewarm_starts + s.warm_starts,
              s.calls_completed);
    EXPECT_EQ(inv.queue_length(), 0u);
    EXPECT_EQ(inv.executing(), 0u);
    EXPECT_EQ(inv.pool().busy_count(), 0u);
    EXPECT_EQ(inv.pool().creating_count(), 0u);
  }

  sim::Engine engine_;
  workload::FunctionCatalog catalog_;
  std::vector<metrics::CallRecord> delivered_;
};

TEST_F(OurInvokerTest, WarmupFillsCoresContainersPerFunction) {
  NodeParams p;
  p.cores = 10;
  auto inv = make("fifo", p);
  inv->warmup();
  EXPECT_EQ(inv->pool().total_containers(), 110u)
      << "11 functions x 10 cores fit into 32 GiB";
  for (const auto& spec : catalog_.specs()) {
    EXPECT_EQ(inv->pool().idle_count_of(spec.id), 10u) << spec.name;
  }
}

TEST_F(OurInvokerTest, WarmupRespectsMemoryLimit) {
  NodeParams p;
  p.cores = 10;
  p.memory_limit_mb = 8.0 * 160.0;  // room for only 8 containers
  auto inv = make("fifo", p);
  inv->warmup();
  EXPECT_EQ(inv->pool().total_containers(), 8u);
}

TEST_F(OurInvokerTest, WarmupSeedsHistory) {
  NodeParams p;
  p.cores = 10;
  auto inv = make("sept", p);
  inv->warmup();
  for (const auto& spec : catalog_.specs()) {
    EXPECT_EQ(inv->history().samples(spec.id), 10u) << spec.name;
    EXPECT_GT(inv->history().expected_runtime(spec.id), 0.0) << spec.name;
  }
}

TEST_F(OurInvokerTest, SingleWarmCallCompletes) {
  auto inv = make("fifo");
  inv->warmup();
  const auto bfs = *catalog_.find("graph-bfs");
  submit_at(*inv, 1.0, bfs, 0);
  engine_.run();
  ASSERT_EQ(delivered_.size(), 1u);
  const auto& rec = delivered_[0];
  EXPECT_EQ(rec.start_kind, metrics::StartKind::kWarm);
  EXPECT_GE(rec.exec_start, rec.received);
  EXPECT_GE(rec.exec_end, rec.exec_start);
  EXPECT_GE(rec.completion, rec.exec_end);
  EXPECT_EQ(inv->stats().warm_starts, 1u);
  EXPECT_EQ(inv->stats().cold_starts, 0u);
}

TEST_F(OurInvokerTest, IdleCallIsFast) {
  auto inv = make("fifo");
  inv->warmup();
  const auto bfs = *catalog_.find("graph-bfs");
  submit_at(*inv, 1.0, bfs, 0);
  engine_.run();
  // On an idle node the management overhead is milliseconds (Table I).
  EXPECT_LT(delivered_.at(0).completion - delivered_.at(0).received, 0.05);
}

TEST_F(OurInvokerTest, BusyContainersNeverExceedCores) {
  NodeParams p;
  p.cores = 4;
  auto inv = make("fifo", p);
  inv->warmup();
  const auto sleep = *catalog_.find("sleep");
  for (int i = 0; i < 20; ++i) {
    submit_at(*inv, 0.01 * i, sleep, i);
  }
  // Check the cap while the burst is in flight.
  for (double t = 0.1; t < 10.0; t += 0.1) {
    engine_.schedule_at(t, [&] {
      EXPECT_LE(inv->executing(), 4u);
    });
  }
  engine_.run();
  EXPECT_EQ(delivered_.size(), 20u);
}

TEST_F(OurInvokerTest, ColdStartWhenFunctionHasNoContainer) {
  NodeParams p;
  p.cores = 2;
  p.memory_limit_mb = 2.0 * 160.0;  // only 2 containers fit
  auto inv = make("fifo", p);
  inv->warmup();  // fills 2 containers (functions 0 and 1, round-robin)
  const auto bfs = *catalog_.find("graph-bfs");
  submit_at(*inv, 1.0, bfs, 0);
  engine_.run();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].start_kind, metrics::StartKind::kCold);
  EXPECT_EQ(inv->stats().cold_starts, 1u);
  EXPECT_GE(inv->stats().evictions, 1u) << "an idle container made room";
}

TEST_F(OurInvokerTest, ColdStartIncludesInitDelay) {
  NodeParams p;
  p.cores = 2;
  p.memory_limit_mb = 2.0 * 160.0;
  auto inv = make("fifo", p);
  inv->warmup();
  const auto bfs = *catalog_.find("graph-bfs");
  submit_at(*inv, 1.0, bfs, 0);
  engine_.run();
  // Cold init is at least cold_init_min_s.
  EXPECT_GE(delivered_.at(0).exec_start - delivered_.at(0).received,
            p.cold_init_min_s);
}

TEST_F(OurInvokerTest, SeptServesShortBeforeLongUnderBacklog) {
  NodeParams p;
  p.cores = 1;
  auto inv = make("sept", p);
  inv->warmup();
  const auto dna = *catalog_.find("dna-visualisation");
  const auto bfs = *catalog_.find("graph-bfs");
  // While one sleep occupies the single slot, a dna and a (later) bfs call
  // queue up; SEPT must pick the bfs first.
  submit_at(*inv, 0.0, *catalog_.find("sleep"), 0);
  submit_at(*inv, 0.1, dna, 1);
  submit_at(*inv, 0.2, bfs, 2);
  engine_.run();
  ASSERT_EQ(delivered_.size(), 3u);
  EXPECT_EQ(delivered_[1].function, bfs);
  EXPECT_EQ(delivered_[2].function, dna);
}

TEST_F(OurInvokerTest, FifoServesInArrivalOrder) {
  NodeParams p;
  p.cores = 1;
  auto inv = make("fifo", p);
  inv->warmup();
  submit_at(*inv, 0.0, *catalog_.find("sleep"), 0);
  submit_at(*inv, 0.1, *catalog_.find("dna-visualisation"), 1);
  submit_at(*inv, 0.2, *catalog_.find("graph-bfs"), 2);
  engine_.run();
  ASSERT_EQ(delivered_.size(), 3u);
  EXPECT_EQ(delivered_[0].id, 0);
  EXPECT_EQ(delivered_[1].id, 1);
  EXPECT_EQ(delivered_[2].id, 2);
}

TEST_F(OurInvokerTest, HistoryLearnsFromExecutions) {
  auto inv = make("sept");
  inv->warmup();
  const auto bfs = *catalog_.find("graph-bfs");
  const double before = inv->history().expected_runtime(bfs);
  for (int i = 0; i < 10; ++i) submit_at(*inv, 1.0 + i, bfs, i);
  engine_.run();
  // Ten fresh samples displace the warm-up seeds entirely.
  EXPECT_EQ(inv->history().samples(bfs), 10u);
  EXPECT_GT(inv->history().expected_runtime(bfs), 0.0);
  (void)before;
}

TEST_F(OurInvokerTest, ZeroColdStartsWithAmpleMemoryUnderBurst) {
  // The paper's Fig. 2b plateau: with 32 GiB nothing is evicted and the
  // measured burst performs no cold starts.
  NodeParams p;
  p.cores = 4;
  auto inv = make("fifo", p);
  inv->warmup();
  int id = 0;
  for (const auto& spec : catalog_.specs()) {
    for (int k = 0; k < 6; ++k) {
      submit_at(*inv, 0.5 * k + 0.01 * spec.id, spec.id, id++);
    }
  }
  engine_.run();
  EXPECT_EQ(delivered_.size(), 66u);
  EXPECT_EQ(inv->stats().cold_starts, 0u);
  EXPECT_EQ(inv->stats().evictions, 0u);
}

TEST_F(OurInvokerTest, StatsCountsAreConsistent) {
  auto inv = make("fc");
  inv->warmup();
  for (int i = 0; i < 15; ++i) {
    submit_at(*inv, 0.1 * i, static_cast<workload::FunctionId>(i % 11), i);
  }
  engine_.run();
  const auto& s = inv->stats();
  EXPECT_EQ(s.calls_received, 15u);
  EXPECT_EQ(s.calls_completed, 15u);
  EXPECT_EQ(s.warm_starts + s.prewarm_starts + s.cold_starts, 15u);
  expect_drained(*inv);
}

TEST_F(OurInvokerTest, RecordsCarryNodeIndex) {
  auto inv = make("fifo");
  inv->set_node_index(3);
  inv->warmup();
  submit_at(*inv, 0.0, 0, 0);
  engine_.run();
  EXPECT_EQ(delivered_.at(0).node, 3);
}

TEST_F(OurInvokerTest, ExtremeMemoryPressureStillCompletes) {
  // Memory for a single container: every call must wait for the previous
  // one to release, evict, and cold-start — but nothing may deadlock.
  NodeParams p;
  p.cores = 4;
  p.memory_limit_mb = 160.0;
  auto inv = make("fifo", p);
  inv->warmup();
  for (int i = 0; i < 8; ++i) {
    submit_at(*inv, 0.1 * i, static_cast<workload::FunctionId>(i % 11), i);
  }
  engine_.run();
  EXPECT_EQ(delivered_.size(), 8u);
}

// Parameterized over every *registered* policy name (so new registrations
// are covered automatically): each drains an identical mixed burst
// completely and keeps the busy-slot cap.
class EveryPolicy : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryPolicy, DrainsMixedBurst) {
  sim::Engine engine;
  const auto catalog = workload::sebs_catalog();
  std::vector<metrics::CallRecord> delivered;
  NodeParams p;
  p.cores = 3;
  OurInvoker inv(
      engine, catalog, p, sim::Rng(1),
      [&](const metrics::CallRecord& rec) { delivered.push_back(rec); },
      GetParam());
  inv.warmup();
  for (int i = 0; i < 33; ++i) {
    const auto fn = static_cast<workload::FunctionId>(i % 11);
    engine.schedule_at(0.2 * i, [&inv, fn, i] {
      inv.submit(workload::CallRequest{i, fn, 0.2 * i});
    });
  }
  engine.run();
  EXPECT_EQ(delivered.size(), 33u);
  EXPECT_EQ(inv.queue_length(), 0u);
  EXPECT_EQ(inv.executing(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EveryPolicy,
    ::testing::ValuesIn(core::PolicyRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_F(OurInvokerTest, OverloadBurstDrainsAndReleasesEveryContainer) {
  // 120 calls in one second on 4 cores and room for 12 containers: the
  // SEPT queue grows deep, and calls of functions without a warm container
  // evict and cold-start before the backlog drains.
  NodeParams p;
  p.cores = 4;
  p.memory_limit_mb = 12.0 * 160.0;
  auto inv = make("sept", p);
  inv->warmup();
  for (int i = 0; i < 120; ++i) {
    submit_at(*inv, 0.01 * i, static_cast<workload::FunctionId>(i % 11), i);
  }
  engine_.run();
  EXPECT_EQ(delivered_.size(), 120u);
  EXPECT_GT(inv->stats().cold_starts, 0u);
  EXPECT_GT(inv->stats().evictions, 0u);
  expect_drained(*inv);
}

}  // namespace
}  // namespace whisk::node
