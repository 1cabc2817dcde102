#include "lobsim/spec_config.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace lobster::lobsim {

namespace {
// Range checks for scenario values.  A value out of range fails with its
// section and key named, instead of wrapping through an unsigned cast or
// reaching the Engine as a crash or a stall.  The comparisons are written
// so that NaN fails them too.
[[noreturn]] void out_of_range(const char* section, const char* key,
                               const std::string& rule) {
  throw std::invalid_argument(std::string("[") + section + "] " + key +
                              " must be " + rule);
}

constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// An integer key in [min, max].
std::int64_t get_count(const util::Config& cfg, const char* section,
                       const char* key, std::int64_t fallback,
                       std::int64_t min,
                       std::int64_t max =
                           std::numeric_limits<std::int64_t>::max()) {
  const std::int64_t v = cfg.get_int(section, key, fallback);
  if (v < min) out_of_range(section, key, ">= " + std::to_string(min));
  if (v > max) out_of_range(section, key, "<= " + std::to_string(max));
  return v;
}

double at_least_zero(double v, const char* section, const char* key) {
  if (!(v >= 0.0)) out_of_range(section, key, ">= 0");
  return v;
}

double positive(double v, const char* section, const char* key) {
  if (!(v > 0.0)) out_of_range(section, key, "> 0");
  return v;
}

double fraction(double v, const char* section, const char* key) {
  if (!(v >= 0.0 && v <= 1.0)) out_of_range(section, key, "in [0, 1]");
  return v;
}
}  // namespace

RunSpec spec_from_config(const util::Config& cfg) {
  RunSpec spec;
  spec.seed = static_cast<std::uint64_t>(
      get_count(cfg, "workflow", "seed", 2015, 0));

  auto& cluster = spec.cluster;
  cluster.target_cores =
      static_cast<std::size_t>(get_count(cfg, "cluster", "cores", 5000, 1));
  cluster.cores_per_worker = static_cast<std::size_t>(
      get_count(cfg, "cluster", "cores_per_worker", 8, 1));
  cluster.ramp_seconds = at_least_zero(
      cfg.get_duration("cluster", "ramp", 3600.0), "cluster", "ramp");
  // Availability model: `availability = kind[:key=value,...]`, with the
  // legacy `availability_hours` shorthand still honoured (it sets the scale
  // of whichever model is selected).
  if (const auto avail = cfg.get("cluster", "availability"))
    cluster.availability = parse_availability_spec(*avail);
  else
    cluster.availability.scale_hours = 8.0;
  cluster.availability.scale_hours = positive(
      cfg.get_double("cluster", "availability_hours",
                     cluster.availability.scale_hours),
      "cluster", "availability_hours");
  cluster.evictions = cfg.get_bool("cluster", "evictions", true);
  cluster.federation.campus_uplink_rate = util::gbit_per_s(
      positive(cfg.get_double("cluster", "uplink", 10.0), "cluster", "uplink"));
  cluster.num_squids =
      static_cast<std::size_t>(get_count(cfg, "cluster", "squids", 1, 1));
  cluster.chirp.max_connections =
      get_count(cfg, "cluster", "chirp_connections", 24, 1);

  auto& workload = spec.workload;
  workload.num_tasklets = static_cast<std::uint64_t>(
      get_count(cfg, "workflow", "tasklets", 30000, 1));
  workload.tasklets_per_task = static_cast<std::uint32_t>(
      get_count(cfg, "workflow", "tasklets_per_task", 6, 1, kMaxU32));
  workload.tasklet_cpu_mean =
      positive(cfg.get_duration("workflow", "tasklet_cpu", 600.0),
               "workflow", "tasklet_cpu");
  workload.tasklet_cpu_sigma = workload.tasklet_cpu_mean / 2.0;
  workload.tasklet_input_bytes =
      at_least_zero(cfg.get_size("workflow", "input_per_tasklet", 350e6),
                    "workflow", "input_per_tasklet");
  workload.read_fraction =
      fraction(cfg.get_double("workflow", "read_fraction", 0.3), "workflow",
               "read_fraction");
  workload.tasklet_output_bytes =
      at_least_zero(cfg.get_size("workflow", "output_per_tasklet", 20e6),
                    "workflow", "output_per_tasklet");

  const std::string access = cfg.get_string("workflow", "access", "stream");
  if (access == "stage")
    workload.access = core::DataAccessMode::Stage;
  else if (access != "stream")
    throw std::invalid_argument("unknown access mode '" + access + "'");

  const std::string merge = cfg.get_string("workflow", "merge", "interleaved");
  if (merge == "sequential")
    workload.merge_mode = core::MergeMode::Sequential;
  else if (merge == "hadoop")
    workload.merge_mode = core::MergeMode::Hadoop;
  else if (merge != "interleaved")
    throw std::invalid_argument("unknown merge mode '" + merge + "'");

  const std::string dispatch = cfg.get_string("workflow", "dispatch", "fifo");
  if (dispatch == "tail-shrink")
    workload.dispatch = DispatchMode::TailShrink;
  else if (dispatch == "site-aware")
    workload.dispatch = DispatchMode::SiteAware;
  else if (dispatch == "lifetime")
    workload.dispatch = DispatchMode::Lifetime;
  else if (dispatch == "partitioned")
    workload.dispatch = DispatchMode::Partitioned;
  else if (dispatch == "stealing")
    workload.dispatch = DispatchMode::Stealing;
  else if (dispatch != "fifo")
    throw std::invalid_argument("unknown dispatch mode '" + dispatch + "'");

  workload.lifetime_safety = positive(
      cfg.get_double("workflow", "lifetime_safety", workload.lifetime_safety),
      "workflow", "lifetime_safety");
  workload.lifetime_max_tasklets = static_cast<std::uint32_t>(
      get_count(cfg, "workflow", "lifetime_max_tasklets",
                workload.lifetime_max_tasklets, 0, kMaxU32));
  workload.steal_penalty_factor = at_least_zero(
      cfg.get_double("workflow", "steal_penalty_factor",
                     workload.steal_penalty_factor),
      "workflow", "steal_penalty_factor");
  workload.steal_min_backlog = static_cast<std::uint64_t>(
      get_count(cfg, "workflow", "steal_min_backlog",
                static_cast<std::int64_t>(workload.steal_min_backlog), 0));

  spec.outage_start =
      at_least_zero(cfg.get_duration("failures", "outage_start", 0.0),
                    "failures", "outage_start");
  spec.outage_duration =
      at_least_zero(cfg.get_duration("failures", "outage_duration", 0.0),
                    "failures", "outage_duration");
  // Simulated-time budget; runs still unfinished at the cap are reported
  // as INCOMPLETE rather than pretending the cap was the makespan.
  spec.time_cap = positive(cfg.get_duration("run", "time_cap", spec.time_cap),
                           "run", "time_cap");

  // Online advisor loop (all keys optional; absent section = advisor off,
  // which also keeps the trace byte-identical to pre-advisor builds).
  auto& adv = spec.advisor;
  adv.enabled = cfg.get_bool("advisor", "enabled", false);
  adv.period = positive(cfg.get_duration("advisor", "period", adv.period),
                        "advisor", "period");
  adv.thresholds.lost_fraction = cfg.get_double(
      "advisor", "lost_fraction", adv.thresholds.lost_fraction);
  adv.thresholds.dispatch_fraction = cfg.get_double(
      "advisor", "dispatch_fraction", adv.thresholds.dispatch_fraction);
  adv.thresholds.setup_fraction = cfg.get_double(
      "advisor", "setup_fraction", adv.thresholds.setup_fraction);
  adv.thresholds.staging_fraction = cfg.get_double(
      "advisor", "staging_fraction", adv.thresholds.staging_fraction);
  adv.thresholds.failed_fraction = cfg.get_double(
      "advisor", "failed_fraction", adv.thresholds.failed_fraction);
  adv.shrink_factor =
      cfg.get_double("advisor", "shrink_factor", adv.shrink_factor);
  adv.min_task_size = static_cast<std::uint32_t>(get_count(
      cfg, "advisor", "min_task_size", adv.min_task_size, 1, kMaxU32));
  adv.proxy_waste_fraction = cfg.get_double(
      "advisor", "proxy_waste_fraction", adv.proxy_waste_fraction);
  adv.throttle_share =
      cfg.get_double("advisor", "throttle_share", adv.throttle_share);
  adv.probe_share = cfg.get_double("advisor", "probe_share", adv.probe_share);
  adv.recover_factor =
      cfg.get_double("advisor", "recover_factor", adv.recover_factor);
  adv.restore_step =
      cfg.get_double("advisor", "restore_step", adv.restore_step);
  adv.ewma_tau = cfg.get_duration("advisor", "ewma_tau", adv.ewma_tau);

  return spec;
}

}  // namespace lobster::lobsim
