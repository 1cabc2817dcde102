// fig12_adaptive_sizing — extension experiment (paper §8 future work):
// "automatic performance optimization through dynamic adjustment of task
// size in the face of changing eviction rates and resource performance."
//
// Part 1 quantifies, with the §4.1 Monte Carlo, what choosing the right
// task size is worth as the eviction regime shifts: a static one-hour task
// tuned for the calm pool is compared against the per-regime optimum.
//
// Part 2 drives the real (thread-based) Scheduler with adaptive sizing
// enabled on a hostile in-process cluster and shows the controller
// converging to a task size that survives.
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/scheduler.hpp"
#include "core/task_size_model.hpp"
#include "util/table.hpp"
#include "wq/worker.hpp"

namespace {
using namespace lobster;

core::TaskSizeModelParams model_params() {
  core::TaskSizeModelParams p;
  p.num_tasklets = 50000;
  p.num_workers = 4000;
  return p;
}
}  // namespace

int main() {
  using namespace lobster;

  std::puts("=== Extension: dynamic task-size adjustment (paper SS8) ===\n");
  std::puts("-- Part 1: value of adapting task size to the eviction regime --");

  const std::vector<double> sweep_hours{0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
  util::Table table({"eviction regime", "static 1 h tasks",
                     "adapted (best) size", "adapted efficiency", "gain"});
  for (const double hazard : {0.02, 0.1, 0.5, 2.0}) {
    const core::ConstantEviction model(hazard);
    const auto sweep =
        core::sweep_task_sizes(model_params(), model, sweep_hours);
    const auto stat = core::simulate_task_size(model_params(), model, 1.0);
    double best_eff = 0.0;
    double best_hours = 1.0;
    for (const auto& r : sweep) {
      if (r.efficiency > best_eff) {
        best_eff = r.efficiency;
        best_hours = r.task_hours;
      }
    }
    char regime[64];
    std::snprintf(regime, sizeof regime, "%.2f evictions/h", hazard);
    table.row({regime, util::Table::num(stat.efficiency, 3),
               util::Table::num(best_hours, 2) + " h",
               util::Table::num(best_eff, 3),
               std::string("+")
                   .append(util::Table::num(
                       100.0 * (best_eff - stat.efficiency), 1))
                   .append(" pp")});
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\n-- Part 2: the real Scheduler's controller on a hostile pool --");
  core::WorkflowConfig cfg;
  cfg.tasklets_per_task = 8;
  cfg.task_buffer = 8;
  cfg.adaptive_sizing = true;
  cfg.max_attempts = 200;
  cfg.merge_mode = core::MergeMode::Sequential;
  cfg.merge_policy.target_bytes = 1e12;

  // Tasks with more than 2 tasklets are always "evicted" mid-flight.
  std::atomic<int> processed{0};
  auto hostile = [&processed](const std::vector<core::Tasklet>& tasklets) {
    return core::WrapperStages{
        .execute =
            [n = tasklets.size(), &processed](wq::TaskContext& ctx) {
              if (n > 2) {
                ctx.cancel.cancel();
                return 1;
              }
              processed.fetch_add(static_cast<int>(n));
              return 0;
            },
    };
  };
  auto merge = [](const core::MergeGroup&,
                  const std::vector<core::OutputRecord>&) {
    return core::WrapperStages{};
  };
  core::Scheduler sched(cfg, hostile, merge);
  wq::Master master;
  wq::Worker worker("hostile-pool", master, 4);
  std::vector<core::Tasklet> tasklets;
  for (std::uint64_t i = 1; i <= 400; ++i) {
    core::Tasklet t;
    t.id = i;
    t.expected_output_bytes = 1e6;
    tasklets.push_back(t);
  }
  const auto report = sched.run(master, std::move(tasklets));
  worker.join();

  std::printf(
      "started at %u tasklets/task; controller settled at %u; %zu/%zu "
      "tasklets\nprocessed after %zu evictions.\n",
      cfg.tasklets_per_task, sched.tasklets_per_task(),
      report.tasklets_processed, report.tasklets_total, report.evictions);
  std::puts("\nShape check: under high eviction rates the optimal task size");
  std::puts("shrinks, and the feedback controller finds a surviving size");
  std::puts("without operator intervention.");
  return 0;
}
