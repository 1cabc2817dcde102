// Tests for the scenario INI parser behind lobster_sim and lobster_compare
// (lobsim::spec_from_config): every shipped example parses, and a value out
// of its range fails with std::invalid_argument naming its section and key,
// instead of wrapping through an unsigned cast or stalling the Engine.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "lobsim/spec_config.hpp"
#include "util/config.hpp"

namespace lobsim = lobster::lobsim;
namespace util = lobster::util;

namespace {

/// A small valid scenario; each row of the range table overrides one key.
util::Config base_config() {
  return util::Config::parse(R"(
[cluster]
cores = 64
cores_per_worker = 8
ramp = 15m
[workflow]
tasklets = 300
tasklets_per_task = 6
tasklet_cpu = 10m
)");
}

struct BadValue {
  const char* section;
  const char* key;
  const char* value;
};

}  // namespace

TEST(SpecConfig, RejectsOutOfRangeValues) {
  const BadValue rows[] = {
      {"cluster", "cores", "-1"},
      {"cluster", "cores", "0"},
      {"cluster", "cores_per_worker", "-8"},
      {"cluster", "cores_per_worker", "0"},
      {"cluster", "ramp", "-1h"},
      {"cluster", "availability_hours", "0"},
      {"cluster", "uplink", "0"},
      {"cluster", "squids", "0"},
      {"cluster", "chirp_connections", "0"},
      {"cluster", "chirp_connections", "-3"},
      {"workflow", "seed", "-1"},
      {"workflow", "tasklets", "-5"},
      {"workflow", "tasklets", "0"},
      {"workflow", "tasklets_per_task", "0"},
      {"workflow", "tasklets_per_task", "4294967296"},
      {"workflow", "tasklet_cpu", "0"},
      {"workflow", "read_fraction", "2"},
      {"workflow", "read_fraction", "-0.1"},
      {"workflow", "read_fraction", "nan"},
      {"workflow", "lifetime_safety", "0"},
      {"workflow", "lifetime_max_tasklets", "-1"},
      {"workflow", "steal_penalty_factor", "-0.5"},
      {"workflow", "steal_min_backlog", "-1"},
      {"failures", "outage_start", "-1h"},
      {"failures", "outage_duration", "-30m"},
      {"run", "time_cap", "0"},
      {"advisor", "period", "0"},
      {"advisor", "min_task_size", "0"},
  };
  for (const BadValue& row : rows) {
    const std::string name =
        std::string("[") + row.section + "] " + row.key;
    SCOPED_TRACE(name + " = " + row.value);
    util::Config cfg = base_config();
    cfg.set(row.section, row.key, row.value);
    try {
      lobsim::spec_from_config(cfg);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(name + " must be ", 0), 0u)
          << e.what();
    }
  }
}

TEST(SpecConfig, AcceptsRangeBoundaries) {
  util::Config cfg = base_config();
  cfg.set("cluster", "ramp", "0");
  cfg.set("workflow", "seed", "0");
  cfg.set("workflow", "read_fraction", "1");
  cfg.set("workflow", "lifetime_max_tasklets", "0");
  cfg.set("workflow", "steal_min_backlog", "0");
  cfg.set("workflow", "tasklets_per_task", "1");
  const lobsim::RunSpec spec = lobsim::spec_from_config(cfg);
  EXPECT_EQ(spec.cluster.ramp_seconds, 0.0);
  EXPECT_EQ(spec.workload.read_fraction, 1.0);
  EXPECT_EQ(spec.workload.tasklets_per_task, 1u);
}

TEST(SpecConfig, ExamplesParse) {
  std::size_t parsed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(LOBSTER_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().string());
    EXPECT_NO_THROW(lobsim::spec_from_config(
        util::Config::load(entry.path().string())));
    ++parsed;
  }
  EXPECT_GE(parsed, 5u);
}
