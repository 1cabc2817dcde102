// wrapper.hpp — the instrumented task wrapper (paper §3, §5).
//
// "Each task consists of a wrapper which performs pre- and post-processing
// around the actual application. ... The wrapper script that runs every
// user task is heavily instrumented.  It is broken down into logical
// segments ... Each segment records a timestamp and performs an internal
// test for success or failure, with a unique failure code that can be
// emitted for each segment."
//
// make_wrapper() assembles a wq work function from per-segment callbacks,
// timing each segment with a monotonic clock, writing the measurements into
// the task's key/value outputs (seg.* keys) and returning the distinct
// failure code of the first segment that fails.  Eviction is honoured
// between segments and inside cooperative callbacks.
#pragma once

#include <functional>
#include <string>

#include "core/db.hpp"
#include "wq/task.hpp"

namespace lobster::core {

/// Per-segment callbacks.  Boolean stages report success; execute returns
/// the application exit code (0 = success).  Null stages are skipped (zero
/// time).  Stages may poll ctx.cancel for cooperative eviction.
struct WrapperStages {
  std::function<bool(wq::TaskContext&)> check_machine{};
  std::function<bool(wq::TaskContext&)> setup_environment{};
  std::function<bool(wq::TaskContext&)> stage_in{};
  std::function<int(wq::TaskContext&)> execute{};
  std::function<bool(wq::TaskContext&)> stage_out{};
  std::function<bool(wq::TaskContext&)> cleanup{};
};

/// Keys under which the wrapper reports measurements in ctx.outputs.
namespace wrapper_keys {
inline constexpr const char* kEnvSetup = "seg.env_setup";
inline constexpr const char* kStageIn = "seg.stage_in";
inline constexpr const char* kExecute = "seg.execute";
inline constexpr const char* kStageOut = "seg.stage_out";
inline constexpr const char* kCleanup = "seg.cleanup";
/// Set by the execute payload when it can distinguish CPU from I/O time.
inline constexpr const char* kCpuSeconds = "app.cpu_seconds";
inline constexpr const char* kIoSeconds = "app.io_seconds";
inline constexpr const char* kOutputBytes = "app.output_bytes";
}  // namespace wrapper_keys

/// Build the wq work function.
std::function<int(wq::TaskContext&)> make_wrapper(WrapperStages stages);

/// Reconstruct a TaskRecord's segment times / cpu time from the wrapper's
/// ctx.outputs measurements plus the wq-level result fields.
void fill_record_from_result(const wq::TaskResult& result, TaskRecord& record);

}  // namespace lobster::core
