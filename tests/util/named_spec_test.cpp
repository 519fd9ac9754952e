#include "util/named_spec.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/fault.h"
#include "cluster/resilience.h"
#include "container/keep_alive.h"
#include "workload/scenario_registry.h"
#include "workload/workflow.h"

namespace whisk {
namespace {

std::string upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

std::vector<std::string> names_of(const std::vector<util::Param>& params) {
  std::vector<std::string> out;
  for (const auto& p : params) out.push_back(p.name);
  return out;
}

// A value every declared parameter accepts at its default: the default
// itself when it is a plain token, else a bare number (display defaults
// like "experiment intensity" are resolved by the component).
std::string sample_value(const util::Param& p) {
  if (p.default_value.empty() ||
      p.default_value.find(' ') != std::string::npos) {
    return "1";
  }
  return p.default_value;
}

// One registry entry: the spelling a user may write and the canonical name
// it resolves to, plus the parameters the entry itself declares.
struct Entry {
  std::string name;
  std::string canon;
  std::vector<util::Param> declared;
};

// Every canonical name of `names`, then each alias with its target.
std::vector<Entry> entries(
    const std::vector<std::string>& names,
    const std::vector<std::pair<std::string, std::string>>& aliases,
    const std::function<std::vector<util::Param>(const std::string&)>&
        declared) {
  std::vector<Entry> out;
  for (const auto& name : names) out.push_back({name, name, declared(name)});
  for (const auto& [alias, canon] : aliases) {
    out.push_back({alias, canon, declared(canon)});
  }
  return out;
}

// The four grammar properties every spec kind shares.
template <typename Spec>
void check_entry(const Entry& e) {
  SCOPED_TRACE(e.name);
  const std::string key =
      e.declared.empty() ? std::string("x") : e.declared.front().name;
  const std::string value =
      e.declared.empty() ? std::string() : sample_value(e.declared.front());

  // Upper-cased name and keys normalize to the canonical form.
  Spec shouted{upper(e.name), {}};
  Spec canonical{e.canon, {}};
  if (!e.declared.empty()) {
    shouted.params[upper(key)] = value;
    canonical.params[key] = value;
  }
  const Spec normalized = shouted.normalized();
  EXPECT_EQ(normalized, canonical);
  EXPECT_EQ(Spec::parse(normalized.to_string()), normalized);

  // An unknown key lists exactly the entry's declared parameters.
  std::vector<std::string> valid = names_of(e.declared);
  const std::string listed =
      valid.empty() ? std::string("\\(none\\)") : util::join(valid);
  EXPECT_DEATH((void)(Spec{e.name, {{"no-such-key", "1"}}}.normalized()),
               "\"" + e.canon +
                   "\" does not take parameter \"no-such-key\"; valid "
                   "parameters: " +
                   listed + "\n");

  // A programmatic map holding K and k sets k twice.
  EXPECT_DEATH(
      (void)(Spec{e.name, {{upper(key), value}, {key, value}}}.normalized()),
      "\"" + e.canon + "\" sets parameter \"" + key + "\" twice");
}

TEST(NamedSpecDeathTest, ScenarioEntries) {
  auto& registry = workload::ScenarioRegistry::instance();
  for (const auto& e : entries(
           registry.names(),
           {{"uniform-burst", "uniform"},
            {"fixed", "fixed-total"},
            {"mmpp", "bursty"}},
           [&registry](const std::string& canon) {
             return registry.create(canon)->params();
           })) {
    check_entry<workload::ScenarioSpec>(e);
  }
}

TEST(NamedSpecDeathTest, KeepAliveEntries) {
  auto& registry = container::KeepAlivePolicyRegistry::instance();
  for (const auto& e :
       entries(registry.names(), {{"fixed", "ttl"}},
               [&registry](const std::string& canon) {
                 return registry
                     .create(canon, container::KeepAliveSpec{canon, {}})
                     ->params();
               })) {
    check_entry<container::KeepAliveSpec>(e);
  }
}

TEST(NamedSpecDeathTest, AutoscalerEntries) {
  auto& registry = cluster::AutoscalerRegistry::instance();
  for (const auto& e : entries(
           registry.names(), {{"utilization", "target-util"}},
           [&registry](const std::string& canon) {
             // The driver keys every controller accepts come first.
             std::vector<util::Param> all = {{"tick-s", "5", ""},
                                             {"cooldown-s", "60", ""}};
             for (auto& p : registry
                                .create(canon, cluster::AutoscalerSpec{canon, {}})
                                ->params()) {
               all.push_back(std::move(p));
             }
             return all;
           })) {
    check_entry<cluster::AutoscalerSpec>(e);
  }
}

TEST(NamedSpecDeathTest, FaultEntries) {
  auto& registry = cluster::FaultRegistry::instance();
  for (const auto& e : entries(
           registry.names(),
           {{"crash", "crash-restart"}, {"straggler", "slow-node"}},
           [&registry](const std::string& canon) {
             return registry.create(canon, cluster::FaultSpec{canon, {}})
                 ->params();
           })) {
    check_entry<cluster::FaultSpec>(e);
  }
}

TEST(NamedSpecDeathTest, WorkflowEntries) {
  auto& registry = workload::WorkflowRegistry::instance();
  for (const auto& e : entries(
           registry.names(), {{"scatter-gather", "fanout"}, {"edges", "dag"}},
           [&registry](const std::string& canon) {
             return registry.create(canon)->params();
           })) {
    check_entry<workload::WorkflowSpec>(e);
  }
}

TEST(NamedSpecDeathTest, ResilienceKnobs) {
  for (const auto& knob : cluster::resilience_params()) {
    SCOPED_TRACE(knob.name);
    const cluster::ResilienceSpec shouted{
        {{upper(knob.name), knob.default_value}}};
    const cluster::ResilienceSpec canonical{
        {{knob.name, knob.default_value}}};
    EXPECT_EQ(shouted.normalized(), canonical);
    EXPECT_EQ(cluster::ResilienceSpec::parse(canonical.to_string()),
              canonical);
    EXPECT_DEATH((void)(cluster::ResilienceSpec{
                            {{upper(knob.name), "1"}, {knob.name, "1"}}}
                            .normalized()),
                 "resilience spec sets parameter \"" + knob.name +
                     "\" twice");
  }
  EXPECT_DEATH(
      (void)cluster::ResilienceSpec::parse("no-such-key=1"),
      "resilience spec does not take parameter \"no-such-key\"; valid "
      "parameters: " +
          util::join(names_of(cluster::resilience_params())) + "\n");
}

// The name is trimmed and a blank spec is "empty" for every kind.
TEST(NamedSpecDeathTest, BlankNamesTrimAndBlankSpecsAreEmpty) {
  EXPECT_EQ(workload::ScenarioSpec::parse(" uniform ").name, "uniform");
  EXPECT_EQ(container::KeepAliveSpec::parse(" ttl").name, "ttl");
  EXPECT_EQ(cluster::AutoscalerSpec::parse(" target-util").name,
            "target-util");
  EXPECT_EQ(cluster::FaultSpec::parse(" crash-restart").name,
            "crash-restart");
  EXPECT_EQ(workload::WorkflowSpec::parse("\tchain ?stages=2").to_string(),
            "chain?stages=2");
  EXPECT_EQ(cluster::AutoscalerSpec::parse(" None ").name, "none");

  EXPECT_DEATH((void)workload::ScenarioSpec::parse("   "),
               "empty scenario spec");
  EXPECT_DEATH((void)container::KeepAliveSpec::parse("   "),
               "empty keep-alive policy spec");
  EXPECT_DEATH((void)cluster::AutoscalerSpec::parse("   "),
               "empty autoscaler spec");
  EXPECT_DEATH((void)cluster::FaultSpec::parse("   "), "empty fault spec");
  EXPECT_DEATH((void)workload::WorkflowSpec::parse("   "),
               "empty workflow spec");
}

// A parameterless entry lists "(none)" in every subsystem.
class Quiet final : public cluster::FaultProcess,
                    public cluster::Autoscaler,
                    public workload::WorkflowDef,
                    public workload::ScenarioDef {
 public:
  std::string_view name() const override { return "quiet"; }
  std::string help() const override { return "test-only: does nothing"; }
  std::vector<util::Param> params() const override { return {}; }
  std::size_t desired_nodes(const cluster::GroupObservation& group,
                            const cluster::ClusterObservation&) override {
    return group.active;
  }
  workload::WorkflowDag build(const workload::WorkflowSpec&) const override {
    workload::WorkflowDag dag;
    dag.stages.resize(1);
    dag.stages[0].label = "only";
    return dag;
  }
  workload::Scenario generate(const workload::ScenarioSpec&,
                              const workload::ScenarioContext&,
                              sim::Rng&) const override {
    return {};
  }
};

TEST(NamedSpecDeathTest, EmptySchemaListsNoneEverywhere) {
  cluster::FaultRegistry::instance().register_factory(
      "quiet-fault",
      [](const cluster::FaultSpec&) { return std::make_unique<Quiet>(); });
  cluster::AutoscalerRegistry::instance().register_factory(
      "quiet-scaler", [](const cluster::AutoscalerSpec&) {
        return std::make_unique<Quiet>();
      });
  workload::WorkflowRegistry::instance().register_factory(
      "quiet-shape", [] { return std::make_unique<Quiet>(); });
  workload::ScenarioRegistry::instance().register_factory(
      "quiet-load", [] { return std::make_unique<Quiet>(); });

  const std::string none = "valid parameters: \\(none\\)";
  EXPECT_DEATH((void)cluster::FaultSpec::parse("quiet-fault?x=1"), none);
  EXPECT_DEATH((void)workload::WorkflowSpec::parse("quiet-shape?x=1"), none);
  EXPECT_DEATH((void)workload::ScenarioSpec::parse("quiet-load?x=1"), none);
  EXPECT_DEATH((void)container::KeepAliveSpec::parse("lru?x=1"), none);
  // Every controller takes the driver keys, so its list is never empty.
  EXPECT_DEATH((void)cluster::AutoscalerSpec::parse("quiet-scaler?x=1"),
               "valid parameters: tick-s, cooldown-s\n");
}

}  // namespace
}  // namespace whisk
