#include "core/task_type.hpp"

#include <cmath>

#include "core/cost_expr.hpp"
#include "util/assert.hpp"

namespace das {

TaskTypeId TaskTypeRegistry::register_type(TaskTypeInfo info) {
  DAS_CHECK(!info.name.empty());
  DAS_CHECK_MSG(find(info.name) == kInvalidTaskType,
                "duplicate task type name: " + info.name);
  // Recover the closed form from factory-built models: the kernel factories
  // wrap a CostExprFn, which the type-erased CostFn can surface again. A
  // hand-written lambda has no CostExprFn target and stays kCallable — the
  // engines then call it through the std::function.
  if (info.expr.kind == CostExpr::Kind::kCallable && info.cost) {
    if (const CostExprFn* f = info.cost.target<CostExprFn>()) info.expr = f->expr;
  }
  types_.push_back(std::move(info));
  return static_cast<TaskTypeId>(types_.size()) - 1;
}

const TaskTypeInfo& TaskTypeRegistry::info(TaskTypeId id) const {
  DAS_CHECK(id >= 0 && id < size());
  return types_[static_cast<std::size_t>(id)];
}

TaskTypeId TaskTypeRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i].name == name) return static_cast<TaskTypeId>(i);
  return kInvalidTaskType;
}

double TaskTypeRegistry::noise_sigma(TaskTypeId id, double cost_s) const {
  return noise_sigma_of(info(id), cost_s);
}

}  // namespace das
