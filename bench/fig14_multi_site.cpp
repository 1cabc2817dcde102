// fig14_multi_site — extension experiment for paper §7: "Furthermore,
// Lobster's design makes it possible to harvest resources from several
// clusters, and even commercial clouds, together to achieve the desired
// scale."
//
// Two modes:
//   --mode classic   (default) a 150k-core-hour analysis run three ways:
//                    on the home campus alone, with a borrowed (hostile)
//                    HPC partition added, and with a commercial cloud
//                    burst on top.  Each site has its own WAN path, squid
//                    and eviction climate; output always returns to the
//                    home Chirp server.
//   --mode stealing  the work-stealing experiment (ROADMAP / paper §7
//                    open question): the same heterogeneous fleet with an
//                    adversarial-burst climate on the HPC partition, run
//                    once under static per-site partitioning and once
//                    with locality-aware work stealing — identical seed,
//                    identical fleet.  Partitioning strands the bursty
//                    site with its share (retry storms) while the other
//                    sites drain theirs and idle; stealing lets them
//                    absorb the backlog at a data penalty (cold squid +
//                    WAN re-stage through the thief's uplink).  Exit code
//                    1 unless stealing achieves strictly higher goodput.
//
// Usage: fig14_multi_site [--mode classic|stealing] [--tasklets N]
//                         [--scale F] [--seed S]
//   --tasklets 8000 --scale 0.25   is the CI smoke configuration.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "lobsim/engine.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace lobster;

namespace {
lobsim::ClusterParams home_campus() {
  lobsim::ClusterParams c;
  c.target_cores = 6000;
  c.cores_per_worker = 8;
  c.ramp_seconds = util::hours(1);
  c.availability.scale_hours = 10.0;
  c.federation.campus_uplink_rate = util::gbit_per_s(10);
  c.chirp.max_connections = 24;
  c.chirp.nic_rate = 8e8;
  return c;
}

lobsim::SiteParams hpc_partition() {
  lobsim::SiteParams s;
  s.name = "HPC backfill";
  s.target_cores = 3000;
  s.ramp_seconds = util::hours(0.5);
  s.availability.scale_hours = 5.0;  // backfill: frequent preemption
  s.federation.campus_uplink_rate = util::gbit_per_s(4);
  return s;
}

lobsim::SiteParams cloud_burst() {
  lobsim::SiteParams s;
  s.name = "cloud burst";
  s.target_cores = 4000;
  s.ramp_seconds = util::hours(0.25);  // instances boot fast
  s.evictions = false;                 // dedicated while paid for
  s.federation.campus_uplink_rate = util::gbit_per_s(5);
  return s;
}

lobsim::WorkloadParams workload() {
  lobsim::WorkloadParams w;
  w.num_tasklets = 80000;
  w.tasklets_per_task = 6;
  w.tasklet_input_bytes = 300e6;
  w.read_fraction = 0.3;
  w.tasklet_output_bytes = 15e6;
  w.merge_mode = lobster::core::MergeMode::Interleaved;
  // Without tail adaptivity, eviction-retry chains of the last stragglers
  // erase the multi-site win; enable the SS8 feature for this experiment.
  w.dispatch = lobsim::DispatchMode::TailShrink;
  return w;
}

int run_classic() {
  std::puts("=== Multi-cluster harvesting (paper SS7 extension) ===\n");

  struct Row {
    const char* label;
    lobsim::ClusterParams cluster;
  };
  std::vector<Row> rows;
  rows.push_back({"campus only (6k cores)", home_campus()});
  {
    auto c = home_campus();
    c.extra_sites = {hpc_partition()};
    rows.push_back({"campus + HPC backfill (9k)", c});
  }
  {
    auto c = home_campus();
    c.extra_sites = {hpc_partition(), cloud_burst()};
    rows.push_back({"campus + HPC + cloud (13k)", c});
  }

  util::Table table({"fleet", "makespan", "peak tasks", "evictions",
                     "per-site tasklets"});
  for (const auto& row : rows) {
    lobsim::Engine engine(row.cluster, workload(), 2015);
    const auto& m = engine.run(30.0 * 86400.0);
    std::string split;
    for (std::size_t s = 0; s < engine.num_sites(); ++s) {
      if (s) split += " / ";
      split += util::Table::integer(
          static_cast<long long>(engine.per_site_tasklets()[s]));
    }
    table.row({row.label, util::format_duration(m.makespan),
               util::Table::integer(static_cast<long long>(m.peak_running)),
               util::Table::integer(static_cast<long long>(m.tasks_evicted)),
               split});
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\nShape check: each added site cuts the makespan; the evicting");
  std::puts("HPC partition contributes less per core than the dedicated");
  std::puts("cloud burst, and outputs still funnel to the home Chirp server.");
  std::puts("(Caveat found while modelling: a site whose WAN path is too");
  std::puts("slow for its core count turns into a task sink — its slots");
  std::puts("keep claiming tasklets they cannot finish before eviction —");
  std::puts("so harvested sites must be provisioned with matching I/O.)");
  return 0;
}

// ---- stealing vs. static partitioning ---------------------------------------

/// Heterogeneous fleet for the stealing experiment: a calm campus, a
/// dedicated cloud, and an HPC partition under the adversarial-burst
/// climate — every few hours a mass-eviction event claims most of its
/// running workers, so the share statically assigned to it drains in retry
/// storms long after the calm sites go idle.
lobsim::ClusterParams stealing_fleet(double scale) {
  auto cores = [&](double n) {
    return static_cast<std::uint64_t>(n * scale < 64.0 ? 64.0 : n * scale);
  };
  lobsim::ClusterParams c;
  c.target_cores = cores(3000);
  c.cores_per_worker = 8;
  c.ramp_seconds = util::hours(0.5);
  c.availability.scale_hours = 10.0;
  c.federation.campus_uplink_rate = util::gbit_per_s(10);
  c.chirp.max_connections = 24;
  c.chirp.nic_rate = 8e8;

  lobsim::SiteParams hpc = hpc_partition();
  hpc.target_cores = cores(3000);
  hpc.availability.kind = lobsim::AvailabilityKind::AdversarialBurst;
  hpc.availability.scale_hours = 5.0;
  hpc.availability.burst_period_hours = 3.0;
  hpc.availability.burst_fraction = 0.8;

  lobsim::SiteParams cloud = cloud_burst();
  cloud.target_cores = cores(2000);

  c.extra_sites = {hpc, cloud};
  return c;
}

int run_stealing(std::uint64_t tasklets, double scale, std::uint64_t seed) {
  std::puts(
      "=== Work stealing vs. static partitioning (adversarial bursts) ===\n");

  struct Row {
    const char* label;
    lobsim::DispatchMode mode;
  };
  const Row rows[] = {
      {"partitioned (static shares)", lobsim::DispatchMode::Partitioned},
      {"stealing (locality-aware)", lobsim::DispatchMode::Stealing},
  };

  util::Table table({"policy", "makespan", "goodput tl/h", "retried",
                     "evictions", "steals", "penalty GB",
                     "per-site tasklets"});
  double goodput[2] = {0.0, 0.0};
  bool completed[2] = {false, false};
  std::uint64_t steal_tasks = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    lobsim::WorkloadParams w = workload();
    w.num_tasklets = tasklets;
    w.dispatch = rows[i].mode;
    // Hour-long tasklets: a 6-tasklet task spans two burst periods on the
    // HPC partition, so almost none of its full-size tasks survive — the
    // regime where a static share strands the site in retry storms.
    w.tasklet_cpu_mean = 3600.0;
    w.tasklet_cpu_sigma = 1200.0;
    lobsim::Engine engine(stealing_fleet(scale), w, seed);
    const auto& m = engine.run(30.0 * 86400.0);
    completed[i] = m.completed;
    goodput[i] = m.makespan > 0.0
                     ? static_cast<double>(m.tasklets_processed) /
                           (m.makespan / 3600.0)
                     : 0.0;
    if (rows[i].mode == lobsim::DispatchMode::Stealing)
      steal_tasks = m.steal_tasks;
    std::string split;
    for (std::size_t s = 0; s < engine.num_sites(); ++s) {
      if (s) split += " / ";
      split += util::Table::integer(
          static_cast<long long>(engine.per_site_tasklets()[s]));
    }
    char gp[32], gb[32];
    std::snprintf(gp, sizeof gp, "%.0f", goodput[i]);
    std::snprintf(gb, sizeof gb, "%.1f", m.steal_bytes_penalty / 1e9);
    table.row(
        {rows[i].label, util::format_duration(m.makespan), gp,
         util::Table::integer(static_cast<long long>(m.tasklets_retried)),
         util::Table::integer(static_cast<long long>(m.tasks_evicted)),
         util::Table::integer(static_cast<long long>(m.steal_tasks)), gb,
         split});
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\nShape check: under static shares the bursty HPC partition");
  std::puts("grinds through its fixed allocation in eviction-retry storms");
  std::puts("while the calm sites sit idle after draining theirs; with");
  std::puts("stealing the idle sites absorb that backlog, paying the WAN");
  std::puts("re-stage penalty but still finishing the workflow sooner.");

  if (!completed[0] || !completed[1]) {
    std::puts("\nFAIL: a run hit the time cap before finishing.");
    return 1;
  }
  if (steal_tasks == 0) {
    std::puts("\nFAIL: the stealing run never stole a task.");
    return 1;
  }
  if (!(goodput[1] > goodput[0])) {
    std::puts(
        "\nFAIL: stealing did not beat static partitioning on goodput.");
    return 1;
  }
  std::printf("\nPASS: stealing goodput %.0f tl/h > partitioned %.0f tl/h "
              "(+%.1f%%).\n",
              goodput[1], goodput[0],
              100.0 * (goodput[1] / goodput[0] - 1.0));
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  std::string mode = "classic";
  std::uint64_t tasklets = 30000;
  double scale = 1.0;
  std::uint64_t seed = 2015;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode" && i + 1 < argc)
      mode = argv[++i];
    else if (arg == "--tasklets" && i + 1 < argc)
      tasklets = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (arg == "--scale" && i + 1 < argc)
      scale = std::atof(argv[++i]);
    else if (arg == "--seed" && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else {
      std::fprintf(stderr,
                   "usage: fig14_multi_site [--mode classic|stealing] "
                   "[--tasklets N] [--scale F] [--seed S]\n");
      return 2;
    }
  }
  if (mode == "classic") return run_classic();
  if (mode == "stealing") return run_stealing(tasklets, scale, seed);
  std::fprintf(stderr, "fig14: unknown mode '%s'\n", mode.c_str());
  return 2;
}
