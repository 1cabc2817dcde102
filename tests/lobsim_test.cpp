// Tests for the cluster-scale DES engine: workload completion, eviction
// retry semantics, merge modes, outage injection, cache-mode ablation and
// determinism.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "lobsim/engine.hpp"
#include "util/trace.hpp"

namespace lobsim = lobster::lobsim;
namespace core = lobster::core;
namespace cv = lobster::cvmfs;

namespace {
lobsim::ClusterParams small_cluster() {
  lobsim::ClusterParams c;
  c.target_cores = 64;
  c.cores_per_worker = 8;
  c.ramp_seconds = 600.0;
  c.squid.max_connections = 1000;
  c.chirp.max_connections = 16;
  return c;
}

lobsim::WorkloadParams small_workload() {
  lobsim::WorkloadParams w;
  w.num_tasklets = 300;
  w.tasklets_per_task = 6;
  w.tasklet_cpu_mean = 600.0;
  w.tasklet_cpu_sigma = 300.0;
  w.tasklet_input_bytes = 50e6;
  w.tasklet_output_bytes = 5e6;
  w.merge_policy.target_bytes = 100e6;
  return w;
}
}  // namespace

TEST(Engine, CompletesWorkloadWithoutEvictions) {
  auto cluster = small_cluster();
  cluster.evictions = false;
  lobsim::Engine engine(cluster, small_workload(), 42);
  const auto& m = engine.run(20.0 * 86400.0);
  EXPECT_EQ(m.tasklets_processed, 300u);
  EXPECT_EQ(m.tasks_evicted, 0u);
  EXPECT_GT(m.tasks_completed, 0u);
  EXPECT_GT(m.merge_tasks_completed, 0u);
  EXPECT_GT(m.makespan, 0.0);
  EXPECT_GT(m.bytes_streamed, 0.0);
  EXPECT_GT(m.bytes_staged_out, 0.0);
}

TEST(Engine, CompletesDespiteEvictions) {
  auto cluster = small_cluster();
  cluster.evictions = true;
  cluster.availability.scale_hours = 2.0;  // hostile pool
  lobsim::Engine engine(cluster, small_workload(), 7);
  const auto& m = engine.run(30.0 * 86400.0);
  EXPECT_EQ(m.tasklets_processed, 300u)
      << "every tasklet must eventually be processed";
  EXPECT_GT(m.tasks_evicted, 0u) << "the hostile pool must evict something";
}

TEST(Engine, DeterministicForSeed) {
  auto run_once = [] {
    lobsim::Engine engine(small_cluster(), small_workload(), 99);
    const auto& m = engine.run();
    return std::make_tuple(m.makespan, m.tasks_completed, m.tasks_evicted,
                           m.bytes_streamed);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StagingUsesStagePathAndStreamUsesStream) {
  auto wl = small_workload();
  wl.merge_mode = core::MergeMode::Sequential;
  wl.num_tasklets = 60;
  // Exact byte accounting requires no retries: disable evictions.
  auto cluster = small_cluster();
  cluster.evictions = false;

  wl.access = core::DataAccessMode::Stream;
  lobsim::Engine stream_engine(cluster, wl, 1);
  const auto& sm = stream_engine.run();
  // Streaming reads only read_fraction of each input (paper §4.2).
  EXPECT_NEAR(stream_engine.federation().bytes_streamed(),
              60 * 50e6 * wl.read_fraction, 60 * 50e6 * 0.01);

  wl.access = core::DataAccessMode::Stage;
  lobsim::Engine stage_engine(cluster, wl, 1);
  const auto& gm = stage_engine.run();
  // Staging transfers whole files: analysis inputs (plus merge inputs).
  EXPECT_GT(stage_engine.federation().bytes_staged(), 60 * 50e6 * 0.99);
  EXPECT_GT(sm.tasklets_processed, 0u);
  EXPECT_GT(gm.tasklets_processed, 0u);
}

TEST(Engine, OutageProducesFailureBurst) {
  auto cluster = small_cluster();
  cluster.evictions = false;
  auto wl = small_workload();
  wl.num_tasklets = 600;
  lobsim::Engine engine(cluster, wl, 5);
  // Outage two hours in, lasting 30 minutes.
  engine.schedule_outage(2.0 * 3600.0, 1800.0);
  const auto& m = engine.run(30.0 * 86400.0);
  EXPECT_GT(m.tasks_failed, 0u)
      << "streams opened during or broken by the outage fail";
  EXPECT_EQ(m.tasklets_processed, 600u) << "failed tasks are retried";
  // Failure events cluster at the outage: none before it, and broken
  // streams surface shortly after the path comes back.
  for (const auto& [t, code] : m.failure_events) {
    EXPECT_GE(t, 2.0 * 3600.0);
    EXPECT_LE(t, 2.0 * 3600.0 + 1800.0 + 1800.0);
  }
}

TEST(Engine, MergeModesAllComplete) {
  for (auto mode : {core::MergeMode::Sequential, core::MergeMode::Hadoop,
                    core::MergeMode::Interleaved}) {
    auto wl = small_workload();
    wl.merge_mode = mode;
    lobsim::Engine engine(small_cluster(), wl, 3);
    const auto& m = engine.run(30.0 * 86400.0);
    EXPECT_EQ(m.tasklets_processed, 300u) << core::to_string(mode);
    EXPECT_GT(m.merge_tasks_completed, 0u) << core::to_string(mode);
    EXPECT_GE(m.last_merge_finish, m.last_analysis_finish -1e-9)
        << core::to_string(mode);
  }
}

TEST(Engine, InterleavedMergesOverlapAnalysis) {
  // Make merging a substantial fraction of the run so the Figure 7 effect
  // is visible: large outputs and a modest Chirp NIC.
  auto cluster = small_cluster();
  cluster.chirp.nic_rate = 2.5e8;
  auto wl = small_workload();
  wl.num_tasklets = 900;
  wl.tasklet_output_bytes = 100e6;
  wl.merge_policy.target_bytes = 2e9;
  wl.merge_mode = core::MergeMode::Interleaved;
  lobsim::Engine inter(cluster, wl, 11);
  const auto& mi = inter.run(30.0 * 86400.0);

  wl.merge_mode = core::MergeMode::Sequential;
  lobsim::Engine seq(cluster, wl, 11);
  const auto& ms = seq.run(30.0 * 86400.0);

  // Figure 7: interleaved completes faster overall because merging
  // proceeds concurrently with analysis.
  EXPECT_LT(mi.makespan, ms.makespan);
  // And at least one interleaved merge finished before analysis ended.
  bool overlapped = false;
  for (std::size_t b = 0; b < mi.merge_done.nbins(); ++b) {
    if (mi.merge_done.sum(b) > 0.0 &&
        mi.merge_done.bin_start(b) < mi.last_analysis_finish) {
      overlapped = true;
      break;
    }
  }
  EXPECT_TRUE(overlapped);
}

TEST(Engine, CacheModeBandwidthOrdering) {
  // Per-instance caches multiply proxy->worker traffic in direct proportion
  // to the slots per node (paper §4.3); exclusive matches alien in bytes
  // but serialises fetches, inflating setup time.
  struct Result {
    double service_bytes;
    double setup_time;
  };
  auto measure = [](cv::CacheMode mode) {
    auto wl = small_workload();
    wl.num_tasklets = 120;
    wl.cache_mode = mode;
    wl.merge_mode = core::MergeMode::Sequential;
    lobsim::ClusterParams cluster;
    cluster.target_cores = 32;
    cluster.cores_per_worker = 8;
    cluster.ramp_seconds = 60.0;
    cluster.evictions = false;
    // Cold-cache population issues many small requests; the per-request
    // latency is what lock serialisation costs (aggregate bandwidth is the
    // same for exclusive and alien, which share one copy).
    cluster.squid.request_latency = 5.0;
    lobsim::Engine engine(cluster, wl, 21);
    const auto& m = engine.run(30.0 * 86400.0);
    // breakdown.other = dispatch + env setup + cleanup; only env setup is
    // nonzero in the simulated wrapper.
    return Result{engine.squid(0).service_link().bytes_moved(),
                  m.monitor.breakdown().other};
  };
  const auto alien = measure(cv::CacheMode::Alien);
  const auto exclusive = measure(cv::CacheMode::Exclusive);
  const auto per_instance = measure(cv::CacheMode::PerInstance);
  EXPECT_GT(per_instance.service_bytes, 3.0 * alien.service_bytes)
      << "per-instance caches re-download the shared head on every slot";
  EXPECT_NEAR(exclusive.service_bytes / alien.service_bytes, 1.0, 0.2)
      << "exclusive shares one copy, like alien";
  EXPECT_GT(exclusive.setup_time, alien.setup_time)
      << "the whole-cache write lock serialises concurrent setups";
}

TEST(Engine, PeakRunningBoundedByCores) {
  auto cluster = small_cluster();
  lobsim::Engine engine(cluster, small_workload(), 17);
  const auto& m = engine.run();
  EXPECT_LE(m.peak_running, cluster.target_cores);
  EXPECT_GT(m.peak_running, 0u);
}

TEST(Engine, RejectsZeroSquids) {
  auto cluster = small_cluster();
  cluster.num_squids = 0;
  EXPECT_THROW(lobsim::Engine(cluster, small_workload(), 1),
               std::invalid_argument);
}

TEST(Engine, MultiSiteHarvestingUsesEverySite) {
  // Paper SS7: "Lobster's design makes it possible to harvest resources
  // from several clusters, and even commercial clouds, together."
  auto cluster = small_cluster();
  cluster.target_cores = 32;
  cluster.evictions = false;
  lobsim::SiteParams hpc;
  hpc.name = "hpc-partition";
  hpc.target_cores = 32;
  hpc.ramp_seconds = 300.0;
  hpc.availability.scale_hours = 2.0;  // harsher than campus
  lobsim::SiteParams cloud;
  cloud.name = "cloud-burst";
  cloud.target_cores = 32;
  cloud.ramp_seconds = 120.0;
  cloud.evictions = false;  // paid-for instances are dedicated
  cluster.extra_sites = {hpc, cloud};

  auto wl = small_workload();
  wl.num_tasklets = 600;
  lobsim::Engine engine(cluster, wl, 13);
  const auto& m = engine.run(30.0 * 86400.0);
  EXPECT_EQ(m.tasklets_processed, 600u);
  ASSERT_EQ(engine.num_sites(), 3u);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(engine.per_site_tasklets()[s], 0u)
        << "site " << s << " must contribute";
    total += engine.per_site_tasklets()[s];
  }
  EXPECT_EQ(total, 600u);
  // Streams flowed over every site's own WAN path.
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_GT(engine.federation(s).bytes_streamed(), 0.0);
}

TEST(Engine, MultiSiteBeatsSingleSiteMakespan) {
  auto wl = small_workload();
  wl.num_tasklets = 900;
  wl.merge_mode = core::MergeMode::Sequential;
  wl.dispatch = lobsim::DispatchMode::TailShrink;  // SS8 adaptivity; see fig14

  auto alone = small_cluster();
  alone.target_cores = 64;
  alone.evictions = false;
  lobsim::Engine single(alone, wl, 19);
  const double t_single = single.run(30.0 * 86400.0).makespan;

  auto fleet = alone;
  lobsim::SiteParams cloud;
  cloud.name = "cloud";
  cloud.target_cores = 64;
  cloud.ramp_seconds = 300.0;
  cloud.evictions = false;
  fleet.extra_sites = {cloud};
  lobsim::Engine both(fleet, wl, 19);
  const double t_fleet = both.run(30.0 * 86400.0).makespan;

  EXPECT_LT(t_fleet, 0.75 * t_single)
      << "doubling the harvested cores must cut the makespan substantially";
}

// ---- wake-on-work dispatch --------------------------------------------------
//
// A slot with no work parks on its site's wait list; a work source wakes it
// at the instant the work appears, its node's death wakes it so it can
// exit, and workflow completion wakes every parked slot.  These runs use
// one 8-core worker per site and exact task lengths (sigma 0, no output)
// so each wake lands at a known instant.

namespace {
namespace des = lobster::des;
namespace util = lobster::util;

lobsim::WorkloadParams exact_workload(std::uint64_t tasklets,
                                      double cpu_seconds) {
  lobsim::WorkloadParams w;
  w.num_tasklets = tasklets;
  w.tasklets_per_task = 1;
  w.tasklet_cpu_mean = cpu_seconds;
  w.tasklet_cpu_sigma = 0.0;
  w.tasklet_input_bytes = 0.0;
  w.tasklet_output_bytes = 0.0;
  w.pileup_bytes = 0.0;
  w.sandbox_bytes = 0.0;
  w.merge_mode = core::MergeMode::Sequential;
  return w;
}

lobsim::ClusterParams one_worker(bool evictions) {
  lobsim::ClusterParams c;
  c.target_cores = 8;
  c.cores_per_worker = 8;
  c.ramp_seconds = 60.0;
  c.evictions = evictions;
  return c;
}

/// Every worker life lasts exactly `seconds`.
lobsim::AvailabilityConfig fixed_lifetime(double seconds) {
  lobsim::AvailabilityConfig a;
  a.kind = lobsim::AvailabilityKind::Trace;
  a.trace = std::make_shared<const std::vector<double>>(
      std::vector<double>{seconds});
  return a;
}

/// An extra dedicated 8-core site.
lobsim::SiteParams dedicated_site() {
  lobsim::SiteParams s;
  s.name = "dedicated";
  s.target_cores = 8;
  s.ramp_seconds = 60.0;
  s.evictions = false;
  return s;
}

double counter(lobsim::Engine& engine, const std::string& name) {
  for (const auto& sample : engine.sim().counters().snapshot())
    if (sample.name == name) return sample.value;
  return -1.0;
}

std::vector<double> event_times(const std::vector<util::TraceEvent>& events,
                                char phase, const std::string& name) {
  std::vector<double> out;
  for (const auto& e : events)
    if (e.phase == phase && e.name == name) out.push_back(e.t);
  return out;
}

des::Process at_time(des::Simulation& sim, double t,
                     std::function<void()> probe) {
  co_await sim.delay(t);
  probe();
}
}  // namespace

TEST(WakeOnWork, IdleTailCostsNoEventsPerIdleMinute) {
  // TailShrink hands the first pull two tasklets and every later pull one,
  // so in the long run one slot works 20 h while seven slots idle for the
  // last 10 h.  A 60-s poll would cost 7 x 600 events there; a parked
  // slot costs none.  The 36 000-s bin keeps the gauge sampler out of it.
  auto run = [](std::uint64_t tasklets) {
    auto wl = exact_workload(tasklets, 36000.0);
    wl.dispatch = lobsim::DispatchMode::TailShrink;
    wl.tasklets_per_task = 2;
    lobsim::Engine engine(one_worker(false), wl, 5, 3.0 * 36000.0);
    const auto& m = engine.run();
    EXPECT_TRUE(m.completed);
    return std::make_tuple(m.makespan,
                           counter(engine, "des.kernel.events_dispatched"),
                           counter(engine, "lobsim.engine.slot_parks"));
  };
  const auto [base_makespan, base_events, base_parks] = run(8);
  const auto [tail_makespan, tail_events, tail_parks] = run(9);
  EXPECT_NEAR(tail_makespan - base_makespan, 36000.0, 1.0)
      << "the last task runs 10 h longer";
  EXPECT_GT(tail_parks, 0.0);
  EXPECT_LE(tail_parks, base_parks + 7.0) << "seven slots park once more";
  EXPECT_LT(tail_events - base_events, 20.0)
      << "10 idle hours on 7 slots must cost O(1) events, not ~4200";
}

TEST(WakeOnWork, EvictedTaskRetriesAtTheEvictionInstant) {
  // The home worker pulls first and takes all eight tasks; the dedicated
  // site's slots park.  The home worker dies mid-task, and each evicted
  // tasklet must restart on a parked slot at the instant it is returned.
  auto cluster = one_worker(true);
  cluster.availability = fixed_lifetime(3600.0);
  cluster.rejoin_mean_seconds = 1e6;
  cluster.extra_sites = {dedicated_site()};
  lobsim::Engine engine(cluster, exact_workload(8, 7200.0), 3);
  engine.enable_tracing("");
  const auto& m = engine.run();
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.tasks_evicted, 8u);

  const auto events =
      util::parse_trace_jsonl(engine.sim().tracer().buffer());
  const auto evicted = event_times(events, 'i', "task_evicted");
  ASSERT_EQ(evicted.size(), 8u);
  std::vector<double> retries;
  for (double t : event_times(events, 'B', "analysis"))
    if (t >= evicted.front()) retries.push_back(t);
  EXPECT_EQ(retries, evicted)
      << "every retry starts when its eviction returns the tasklet";
}

TEST(WakeOnWork, ReturnedWorkWakesAChainOfParkedSlots) {
  // The home worker's first slot takes all eight tasklets as one task and
  // every other slot parks.  Before the home worker dies, the task-size
  // cap drops to one tasklet, so the evicted task comes back as eight
  // tasks.  Its return wakes one parked slot, and each woken slot that
  // leaves work behind wakes the next: all eight start at once.
  auto cluster = one_worker(true);
  cluster.availability = fixed_lifetime(3600.0);
  cluster.rejoin_mean_seconds = 1e6;
  cluster.extra_sites = {dedicated_site()};
  auto wl = exact_workload(8, 7200.0);
  wl.tasklets_per_task = 8;
  lobsim::Engine engine(cluster, wl, 6);
  engine.enable_tracing("");
  engine.sim().spawn(at_time(engine.sim(), 1800.0, [&] {
    engine.dispatch_policy().set_size_cap(1);
  }));
  const auto& m = engine.run();
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.tasks_evicted, 1u);

  const auto events =
      util::parse_trace_jsonl(engine.sim().tracer().buffer());
  const auto evicted = event_times(events, 'i', "task_evicted");
  ASSERT_EQ(evicted.size(), 1u);
  std::vector<double> retries;
  for (double t : event_times(events, 'B', "analysis"))
    if (t >= evicted.front()) retries.push_back(t);
  EXPECT_EQ(retries, std::vector<double>(8, evicted.front()));
}

TEST(WakeOnWork, ParkedSlotLeavesAtItsNodeDeathAndTheWorkerRejoins) {
  // The home worker takes all the work; the second site's worker, whose
  // lives last 3630 s, parks all eight slots at once.  At its death they
  // must exit, so the worker rejoins (near-zero backoff) right away.
  auto cluster = one_worker(false);
  cluster.rejoin_mean_seconds = 1e-3;
  auto dying = dedicated_site();
  dying.evictions = true;
  dying.availability = fixed_lifetime(3630.0);
  cluster.extra_sites = {dying};
  lobsim::Engine engine(cluster, exact_workload(8, 20000.0), 9);
  const lobsim::NodeHandle node{1, 0};
  double death_after = 0.0;
  bool alive_after = false;
  engine.sim().spawn(at_time(engine.sim(), 3631.0, [&] {
    death_after = engine.site_manager().node(node).death;
    alive_after = engine.site_manager().node(node).alive;
  }));
  const auto& m = engine.run();
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(engine.per_site_tasklets()[1], 0u);
  EXPECT_TRUE(alive_after);
  EXPECT_GT(death_after, 2.0 * 3630.0) << "a second life has begun";
  EXPECT_LT(death_after, 2.0 * 3630.0 + 1.0)
      << "the parked slots left at the first death, not later";
}

TEST(WakeOnWork, CompletionLeavesNoProcessAndStopsTheClock) {
  // Lives of 100 h arm death timers far past completion.  Once every
  // process has exited, those stale timers must not keep run() going.
  auto cluster = one_worker(true);
  cluster.availability = fixed_lifetime(100.0 * 3600.0);
  auto wl = exact_workload(9, 3600.0);
  wl.dispatch = lobsim::DispatchMode::TailShrink;
  wl.tasklets_per_task = 2;
  lobsim::Engine engine(cluster, wl, 4);
  const auto& m = engine.run();
  ASSERT_TRUE(m.completed);
  EXPECT_GT(counter(engine, "lobsim.engine.slot_parks"), 0.0);
  EXPECT_EQ(counter(engine, "lobsim.engine.slot_parks"),
            counter(engine, "lobsim.engine.slot_wakes"));
  EXPECT_EQ(engine.sim().live_processes(), 0u);
  EXPECT_LE(engine.sim().now(), m.makespan + 2.0 * 3600.0);
}

TEST(WakeOnWork, ThiefWakesWhenTheVictimBacklogReachesTheStealMinimum) {
  // Stealing splits 16 tasklets 8/8.  The thief site's tasks are short and
  // its slots park with nothing to steal.  The victim's tasks stream
  // through a slow uplink until its worker's death evicts all eight, and
  // their returns refill its pool.  A parked thief must steal at the
  // instant the backlog reaches steal_min_backlog.
  auto cluster = one_worker(true);
  cluster.availability = fixed_lifetime(1800.0);
  cluster.rejoin_mean_seconds = 1e6;
  cluster.federation.per_stream_rate = 1e5;
  cluster.extra_sites = {dedicated_site()};
  auto wl = exact_workload(16, 600.0);
  wl.access = core::DataAccessMode::Stream;
  wl.tasklet_input_bytes = 1e9;
  wl.dispatch = lobsim::DispatchMode::Stealing;
  wl.steal_min_backlog = 4;
  lobsim::Engine engine(cluster, wl, 8);
  engine.enable_tracing("");
  const auto& m = engine.run(6.0 * 3600.0);
  EXPECT_EQ(m.tasks_evicted, 8u);

  const auto events =
      util::parse_trace_jsonl(engine.sim().tracer().buffer());
  const auto evicted = event_times(events, 'i', "task_evicted");
  const auto steals = event_times(events, 'i', "steal");
  ASSERT_EQ(evicted.size(), 8u);
  ASSERT_FALSE(steals.empty());
  EXPECT_EQ(steals.front(), evicted[3])
      << "the fourth returned tasklet lifts the backlog to the minimum";
}
