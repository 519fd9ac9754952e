#include "workload/scenario_spec.h"

#include "workload/scenario_registry.h"

namespace whisk::workload {

const util::FactoryRegistry<ScenarioDef>& ScenarioKind::registry() {
  return ScenarioRegistry::instance();
}

util::ParamSchema ScenarioKind::schema(const std::string& canon) {
  return {ScenarioRegistry::instance().create(canon)->params()};
}

void ScenarioKind::check(const ScenarioSpec&) {}

}  // namespace whisk::workload
