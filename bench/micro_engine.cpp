// micro_engine — campaign throughput microbenchmark.
//
// Measures end-to-end Engine runs (full DES kernel: batch ramp, eviction,
// WAN links, merging) executed through lobsim::Campaign, serial vs. multi
// threaded.  The scenario is deliberately small so a single run takes tens
// of milliseconds and the benchmark exercises campaign dispatch overhead
// rather than one giant simulation.
//
// BM_CampaignSpeedup prints the jobs=N / jobs=1 wall-clock ratio as the
// "speedup" counter; the acceptance bar for the parallel harness is >1.5x
// at 4 jobs over 8 seeds on a 4+ core machine.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "lobsim/campaign.hpp"

using namespace lobster;

namespace {

lobsim::RunSpec small_spec() {
  lobsim::RunSpec spec;
  spec.cluster.target_cores = 64;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 60.0;
  spec.cluster.evictions = true;
  spec.workload.num_tasklets = 600;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 120.0;
  spec.workload.merge_mode = core::MergeMode::Interleaved;
  spec.time_cap = 10.0 * 86400.0;
  spec.metric_bin_seconds = 3600.0;
  return spec;
}

double run_campaign(std::size_t jobs, std::size_t seeds) {
  lobsim::Campaign campaign(jobs);
  std::vector<std::uint64_t> sweep;
  for (std::uint64_t s = 0; s < seeds; ++s) sweep.push_back(2015 + s);
  campaign.add_seed_sweep(small_spec(), sweep);
  const auto t0 = std::chrono::steady_clock::now();
  campaign.run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Single Engine run throughput: simulated-seconds per wall-second.
void BM_SingleEngineRun(benchmark::State& state) {
  double sim_seconds = 0.0;
  for (auto _ : state) {
    const auto stats = lobsim::Campaign::execute(lobsim::RunSpec{small_spec()});
    benchmark::DoNotOptimize(stats.makespan);
    sim_seconds += stats.makespan;
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      sim_seconds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleEngineRun)->Unit(benchmark::kMillisecond);

// Campaign of 8 seeds at various --jobs widths.
void BM_Campaign(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_campaign(jobs, 8));
  }
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_Campaign)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Direct serial vs. parallel comparison: reports the wall-clock speedup of
// jobs=4 over jobs=1 across 8 seeds (the ISSUE acceptance criterion).
void BM_CampaignSpeedup(benchmark::State& state) {
  double serial = 0.0, parallel = 0.0;
  for (auto _ : state) {
    serial += run_campaign(1, 8);
    parallel += run_campaign(4, 8);
  }
  state.counters["speedup"] =
      parallel > 0.0 ? serial / parallel : 0.0;
}
BENCHMARK(BM_CampaignSpeedup)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
