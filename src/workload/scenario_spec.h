#pragma once

#include <string_view>

#include "util/named_spec.h"
#include "util/registry.h"

namespace whisk::workload {

class ScenarioDef;

// What a workload scenario spec declares beyond the shared grammar (see
// util::NamedSpec): names resolve against the ScenarioRegistry, keys against
// the scenario's params(). Values are validated by generate().
struct ScenarioKind {
  static constexpr std::string_view kLabel = "scenario";
  static constexpr std::string_view kDefaultName = "uniform";
  static constexpr std::string_view kExample = "uniform?intensity=60";
  static constexpr bool kReservesNone = false;
  static const util::FactoryRegistry<ScenarioDef>& registry();
  static util::ParamSchema schema(const std::string& canon);
  static void check(const util::NamedSpec<ScenarioKind>& spec);
};

// A scenario by registry name plus named parameters — the workload-side
// mirror of experiments::SchedulerSpec:
//
//   auto spec = ScenarioSpec::parse("uniform?intensity=60");
//   spec.to_string()  -> "uniform?intensity=60"
using ScenarioSpec = util::NamedSpec<ScenarioKind>;

}  // namespace whisk::workload
