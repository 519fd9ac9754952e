#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/named_spec.h"
#include "util/registry.h"

namespace whisk::workload {

class WorkflowRegistry;

// What a workflow spec declares beyond the shared grammar (see
// util::NamedSpec): "none" (the default) means calls stay independent — the
// simulator's pre-workflow behavior, bit for bit; other names resolve
// against the WorkflowRegistry, keys against the shape's params(), and
// values are validated by building the DAG once.
struct WorkflowKind {
  static constexpr std::string_view kLabel = "workflow";
  static constexpr std::string_view kDefaultName = "none";
  static constexpr std::string_view kExample = "fanout?width=8&join=all";
  static constexpr bool kReservesNone = true;
  static const WorkflowRegistry& registry();
  static util::ParamSchema schema(const std::string& canon);
  static void check(const util::NamedSpec<WorkflowKind>& spec);
};

// Declarative workflow selection: "chain?stages=4",
// "fanout?width=8&join=all", "dag?edges=a>b+a>c+b>d+c>d".
using WorkflowSpec = util::NamedSpec<WorkflowKind>;

// One stage of an instantiated workflow DAG. Stages are stored in
// topological order with stage 0 the unique source (the root call of the
// scenario); edges only point forward.
struct WorkflowStage {
  std::string label;

  // The stage runs function (root_function + offset) mod catalog size, so
  // a DAG instantiates against whatever function the scenario drew for the
  // root call. functions=root keeps every offset 0; functions=rotate gives
  // stage s offset s (asymmetric branches).
  int function_offset = 0;

  std::vector<int> successors;  // topo indices, strictly > this stage's
  int preds = 0;                // in-degree
  // Ok predecessors required to release this stage: preds for join=all
  // fan-ins, k for k-of-n scatter-gather joins, 0 only for the source.
  int join_k = 0;
};

// A validated workflow shape: topologically ordered stages, one source.
struct WorkflowDag {
  std::vector<WorkflowStage> stages;

  [[nodiscard]] std::size_t size() const { return stages.size(); }
};

// A registered workflow shape: metadata for --list plus the DAG builder.
class WorkflowDef {
 public:
  virtual ~WorkflowDef() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string help() const = 0;
  [[nodiscard]] virtual std::vector<util::Param> params() const = 0;

  // Build the DAG for `spec` (parameter values are validated here, so
  // every parameter needs a usable default — the registry probes shapes
  // with an empty parameter map).
  [[nodiscard]] virtual WorkflowDag build(const WorkflowSpec& spec) const = 0;
};

// The open extension surface for workflow shapes, mirroring the fault /
// scenario / policy registries: register a WorkflowDef under a name and
// `workflows=` campaign axes and whisk_sweep --list
// discover it.
class WorkflowRegistry : public util::FactoryRegistry<WorkflowDef> {
 public:
  static WorkflowRegistry& instance();

 private:
  WorkflowRegistry() : FactoryRegistry("workflow") {}
};

// Validate structural invariants (non-empty, single source at index 0,
// forward-only edges, consistent preds/join_k, unique labels) and abort
// with a loud message naming `context` when one fails. Every DAG funnels
// through this in make_workflow_dag; exposed for shape authors' tests.
void validate_workflow_dag(const WorkflowDag& dag, const std::string& context);

// Build + validate the DAG for an enabled spec. Aborts on "none".
[[nodiscard]] WorkflowDag make_workflow_dag(const WorkflowSpec& spec);

}  // namespace whisk::workload
