// engine.hpp — the cluster-scale simulation engine.
//
// This is the testbed substitute for the paper's production environment:
// an opportunistic HTCondor pool at Notre Dame (~10-20k cores in bursts),
// the CMS data federation behind a 10 Gbit/s campus uplink, squid proxy
// caches for CVMFS, and a Chirp server in front of Hadoop storage.  All of
// it is modelled on the des:: kernel with parameters stated in the paper,
// and the Lobster scheduling semantics (task construction from tasklets,
// retry-on-eviction, interleaved merging) mirror core::Scheduler.
//
// The Engine is a thin coordinator over three pluggable layers:
//
//   SiteManager    — batch-system ramp, worker lifecycle, eviction models
//                    (site_manager.hpp; also owns ClusterParams/SiteParams);
//   DispatchPolicy — task construction from the pending pools
//                    (dispatch_policy.hpp: fifo / tail-shrink / site-aware);
//   MergePlanner   — output-merge planning
//                    (merge_planner.hpp: sequential / hadoop / interleaved).
//
// What remains here is the task execution pipeline itself (software setup,
// stage-in, execute, stage-out against the shared infrastructure) and the
// metrics.  One Engine instance runs one workload scenario; campaign.hpp
// runs many of them in parallel.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "chirp/chirp.hpp"
#include "core/config.hpp"
#include "core/db.hpp"
#include "core/merge.hpp"
#include "core/monitor.hpp"
#include "core/task_size_model.hpp"
#include "cvmfs/parrot_cache.hpp"
#include "cvmfs/squid.hpp"
#include "des/simulation.hpp"
#include "lobsim/advisor.hpp"
#include "lobsim/dispatch_policy.hpp"
#include "lobsim/merge_planner.hpp"
#include "lobsim/site_manager.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "xrootd/federation.hpp"

namespace lobster::lobsim {

/// Workload parameters (one workflow).
struct WorkloadParams {
  std::uint64_t num_tasklets = 100000;
  std::uint32_t tasklets_per_task = 6;  ///< ~1 h at 10 min/tasklet
  double tasklet_cpu_mean = 600.0;      ///< N(10, 5) minutes, truncated
  double tasklet_cpu_sigma = 300.0;
  /// Input volume consumed per tasklet (0 for simulation workloads).
  double tasklet_input_bytes = 300.0e6;
  /// Fraction of the input a streaming task actually reads: an analysis
  /// "contains only a fraction of the information present in the input
  /// data" (paper §4.2) — this is why streaming beats staging in Figure 4,
  /// since staging must transfer whole files up front.
  double read_fraction = 0.30;
  /// Output volume produced per tasklet.
  double tasklet_output_bytes = 15.0e6;
  core::DataAccessMode access = core::DataAccessMode::Stream;
  /// Software working set (cold cache cost; paper: ~1.5 GB per cache),
  /// split into a head every task shares and a per-task tail.
  double release_shared_bytes = 1.3e9;
  double release_tail_bytes = 0.2e9;
  /// Hot-cache per-task setup traffic (catalog checks, small misses).
  double hot_setup_bytes = 25.0e6;
  cvmfs::CacheMode cache_mode = cvmfs::CacheMode::Alien;
  /// Per-tasklet extra input for simulation workloads (pile-up overlay).
  double pileup_bytes = 5.0e6;
  /// Per-task payload sent from the master through the foremen (sandbox,
  /// configuration, input manifests) — the "WQ Stage In" row of Figure 8.
  double sandbox_bytes = 50.0e6;
  /// A slot that just watched its task fail backs off before pulling new
  /// work (the wrapper's retry discipline; damps outage retry storms).
  double failure_backoff = 300.0;
  /// Task-construction policy (dispatch_policy.hpp).  Fifo mirrors the
  /// production system the paper measured; TailShrink adds the §8 task-size
  /// adaptivity (single-tasklet tasks once the pool is smaller than the
  /// slot count).
  DispatchMode dispatch = DispatchMode::Fifo;
  /// Lifetime dispatch only: fraction of the expected remaining worker
  /// lifetime a task may fill, and the per-task tasklet cap (0 = 4x
  /// tasklets_per_task).
  double lifetime_safety = 0.25;
  std::uint32_t lifetime_max_tasklets = 0;
  /// Stealing dispatch only: a stolen task re-stages this fraction of its
  /// input volume over the thief site's WAN uplink (on top of a cold-squid
  /// conditions fetch) — the victim-vs-thief data-locality penalty.  And a
  /// site only steals from a backlog of at least steal_min_backlog
  /// tasklets (0 = 2x tasklets_per_task).
  double steal_penalty_factor = 0.5;
  std::uint64_t steal_min_backlog = 0;

  core::MergeMode merge_mode = core::MergeMode::Interleaved;
  core::MergePolicy merge_policy;
  /// Merge task transfer behaviour: inputs via XrootD, outputs via Chirp
  /// (paper §4.4); CPU cost per merged byte is negligible.
  double merge_cpu_per_gb = 10.0;
  /// Hadoop-mode merging: concurrent reducers, their HDFS-local rate, and
  /// the per-reducer overhead of transferring the small files to the local
  /// machine and creating the HEP environment there (paper §4.4).
  std::int64_t hadoop_reduce_slots = 16;
  double hadoop_local_rate = 2.5e8;
  double hadoop_reduce_setup = 240.0;
};

/// Scalar outcome of one run — the copyable part of EngineMetrics that
/// sweeps aggregate over.  The task-outcome counts (tasks_*,
/// merge_tasks_completed, tasklets_*, steal_*, advisor_*) are copied from
/// the lobsim.* counter plane once, at the end of Engine::run().
struct RunStats {
  double makespan = 0.0;
  double last_analysis_finish = 0.0;
  double last_merge_finish = 0.0;
  double bytes_streamed = 0.0;
  double bytes_staged = 0.0;
  double bytes_staged_out = 0.0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t tasks_evicted = 0;
  std::uint64_t merge_tasks_completed = 0;
  std::uint64_t tasklets_processed = 0;
  /// Tasklets returned to the pending pool by evicted/failed tasks — the
  /// "wasted dispatches" an availability climate costs (each is work that
  /// had to be re-run).
  std::uint64_t tasklets_retried = 0;
  /// Work stealing (DispatchMode::Stealing only): pulls that looked to a
  /// sibling's backlog, chunks actually stolen, and the extra bytes the
  /// data-locality penalty cost the thieves.
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_tasks = 0;
  double steal_bytes_penalty = 0.0;
  /// Online advisor activity (Engine::enable_advisor): observation ticks
  /// and actuations by kind.  All zero when the advisor is off.
  std::uint64_t advisor_ticks = 0;
  std::uint64_t advisor_shrinks = 0;
  std::uint64_t advisor_throttles = 0;
  std::uint64_t advisor_drains = 0;
  std::uint64_t advisor_restores = 0;
  /// Peak of the running-tasks gauge.
  std::size_t peak_running = 0;
  /// True only when the workflow genuinely finished (analysis + merging);
  /// false means the run was truncated by the time cap (or stalled), so
  /// `makespan` is a lower bound, not a completion time.
  bool completed = false;
  /// The monitor's runtime breakdown at the end of the run (Figure 8).
  core::RuntimeBreakdown breakdown;
};

/// What happened — everything the figure benches print: the run's
/// RunStats plus its timelines and per-task monitor.
struct EngineMetrics : RunStats {
  explicit EngineMetrics(double bin_seconds)
      : monitor(bin_seconds),
        analysis_done(0.0, bin_seconds),
        merge_done(0.0, bin_seconds) {}

  core::Monitor monitor;
  util::TimeSeries analysis_done;
  util::TimeSeries merge_done;
  /// (time, exit code) of every failed task — Figure 11 bottom panel.
  std::vector<std::pair<double, int>> failure_events;
};

class Engine {
 public:
  Engine(ClusterParams cluster, WorkloadParams workload, std::uint64_t seed,
         double metric_bin_seconds = 600.0);
  ~Engine();

  /// Run to completion (or until `time_cap` seconds of simulated time).
  /// Returns the collected metrics.
  const EngineMetrics& run(double time_cap = 10.0 * 86400.0);

  des::Simulation& sim() { return sim_; }
  /// Home-site federation (site 0).
  xrootd::FederationSim& federation() { return sites_->federation(0); }
  xrootd::FederationSim& federation(std::size_t site) {
    return sites_->federation(site);
  }
  chirp::ChirpSim& chirp() { return *chirp_; }
  /// Home-site squids (site 0).
  cvmfs::SquidSim& squid(std::size_t i) { return sites_->squid(0, i); }
  cvmfs::SquidSim& squid(std::size_t site, std::size_t i) {
    return sites_->squid(site, i);
  }
  [[nodiscard]] std::size_t num_sites() const { return sites_->num_sites(); }
  /// Tasklets processed by each site's workers (index as in params).
  const std::vector<std::uint64_t>& per_site_tasklets() const {
    return per_site_tasklets_;
  }

  SiteManager& site_manager() { return *sites_; }
  DispatchPolicy& dispatch_policy() { return *dispatch_; }
  MergePlanner& merge_planner() { return *planner_; }

  /// Inject a WAN outage (Figure 10's transient failure burst).
  void schedule_outage(double start, double duration);

  /// Route per-task lifecycle spans, segment spans and the final counter
  /// snapshot to a trace file (written when run() finishes).  Call before
  /// run().  An empty path keeps the trace in memory (tests).
  void enable_tracing(const std::string& path,
                      util::TraceFormat format = util::TraceFormat::Jsonl);

  /// Switch on the online advisor loop (advisor.hpp): ticked every
  /// `config.period` simulated seconds, it runs the §5 diagnosis rules over
  /// windowed aggregates and actuates task sizing and per-site dispatch
  /// share.  Call before run().  The lobsim.advisor.* counters are
  /// registered here, so advisor-off runs keep byte-identical traces.
  void enable_advisor(const AdvisorConfig& config);

 private:
  struct AdvisorPort;  // the AdvisorActions adapter (engine.cpp)
  struct Park;         // the awaitable a slot with no work suspends on

  /// One entry of a site's wait list: a parked slot and the park sequence
  /// number it parked under.  An entry whose number no longer matches the
  /// slot's is stale (the slot was woken at its node's death) and is
  /// skipped when reached.
  struct WaitEntry {
    std::size_t slot = 0;
    std::uint64_t ticket = 0;
  };
  /// A slot's parking state: the coroutine to resume and its park sequence
  /// number, 0 while the slot is not parked.
  struct SlotPark {
    std::coroutine_handle<> handle;
    std::uint64_t ticket = 0;
  };

  des::Process gauge_sampler(double period);
  des::Process advisor_loop(double period);
  des::Process core_slot(NodeHandle node, std::size_t slot);
  des::Process hadoop_merge();
  /// run_task/setup_software take the resolved node reference: WorkerNode
  /// storage is stable for the whole run (dense per-site arrays), so the
  /// reference may be held across suspensions.
  des::Task<bool> run_task(WorkerNode& node, std::size_t slot, TaskUnit task,
                           core::TaskRecord& record);
  des::Task<void> setup_software(WorkerNode& node, std::size_t slot,
                                 core::TaskRecord& record);
  /// Pull the next task (analysis or merge) from the dispatch policy;
  /// nullopt when the pools are momentarily empty.
  std::optional<TaskUnit> next_task(const WorkerNode& node);
  /// The advisor's share gate: true while `site` runs its capped number of
  /// concurrent tasks.
  bool gate_denies(std::size_t site) const;
  void finish_task(const TaskUnit& task, core::TaskRecord& record,
                   bool success, bool evicted, std::size_t site);
  bool analysis_complete() const;
  bool workflow_complete() const;
  /// Set done_ once the workflow is complete, and wake every parked slot
  /// so it can exit.
  void check_done();

  // ---- wake-on-work dispatch ----
  /// Dense indices of a node and of one of its slots, over every site.
  std::size_t node_index(const WorkerNode& node) const;
  std::size_t slot_index(const WorkerNode& node, std::size_t slot) const;
  /// Append a slot to its site's wait list, and arm the node's death timer
  /// for this life if it is not armed yet.
  void park(const WorkerNode& node, std::size_t slot,
            std::coroutine_handle<> handle);
  /// Resume one parked slot (now, through the event queue).  Its wait-list
  /// entry, if still queued, goes stale.
  void wake(std::size_t slot);
  /// Drop stale entries off the front of a site's wait list; false when
  /// no parked slot remains on it.
  bool prune_front(std::size_t site);
  /// Wake one parked slot that has work: the first on `site`'s list, else
  /// the longest-parked slot of any site with work (`kAnySite` goes
  /// straight to that).  Does nothing when no such slot is parked.
  void wake_one(std::size_t site);
  /// The death timer of a node life: wakes its parked slots so they exit.
  void wake_dead_node(const WorkerNode& node);
  /// Trace track for a (site, worker, slot) triple.  Worker ids are
  /// per-site, so the site index is folded in to keep tracks distinct.
  static std::uint64_t task_track(const WorkerNode& node, std::size_t slot);

  ClusterParams cluster_;
  WorkloadParams workload_;
  util::Rng rng_;
  des::Simulation sim_;
  std::unique_ptr<SiteManager> sites_;
  std::unique_ptr<DispatchPolicy> dispatch_;
  /// Non-null iff dispatch_ is a StealingDispatch (cached once; the hot
  /// next_task path must not dynamic_cast per pull).
  StealingDispatch* stealing_ = nullptr;
  std::unique_ptr<MergePlanner> planner_;
  std::vector<std::uint64_t> per_site_tasklets_;
  std::unique_ptr<des::BandwidthLink> foreman_fanout_;
  std::unique_ptr<chirp::ChirpSim> chirp_;
  std::unique_ptr<EngineMetrics> metrics_;

  // ---- counter plane (lobsim.*), cached at construction ----
  util::Counter* ctr_tasks_dispatched_ = nullptr;
  util::Counter* ctr_tasks_completed_ = nullptr;
  util::Counter* ctr_tasks_failed_ = nullptr;
  util::Counter* ctr_tasks_evicted_ = nullptr;
  util::Counter* ctr_tasklets_processed_ = nullptr;
  util::Counter* ctr_tasklets_retried_ = nullptr;
  util::Counter* ctr_merges_completed_ = nullptr;
  util::Counter* ctr_slot_parks_ = nullptr;
  util::Counter* ctr_slot_wakes_ = nullptr;
  // Registered only when the dispatch policy steals, so non-stealing runs
  // keep a byte-identical counter snapshot in their traces.
  util::Counter* ctr_steal_attempts_ = nullptr;
  util::Counter* ctr_steal_tasks_ = nullptr;
  util::Gauge* ctr_steal_bytes_penalty_ = nullptr;
  // Registered only by enable_advisor (same byte-identical-trace contract).
  util::Counter* ctr_advisor_ticks_ = nullptr;
  util::Counter* ctr_advisor_shrinks_ = nullptr;
  util::Counter* ctr_advisor_throttles_ = nullptr;
  util::Counter* ctr_advisor_drains_ = nullptr;
  util::Counter* ctr_advisor_restores_ = nullptr;
  util::Gauge* ctr_advisor_share_ = nullptr;
  util::Gauge* ctr_advisor_ewma_ = nullptr;

  // ---- online advisor state (empty when the advisor is off) ----
  AdvisorConfig advisor_cfg_;
  std::unique_ptr<Advisor> advisor_;
  std::unique_ptr<AdvisorPort> advisor_port_;
  /// Previous counter snapshot, diffed per tick into the windowed rates
  /// attached to advisor_tick instants.
  std::vector<util::CounterRegistry::Sample> advisor_prev_snap_;
  /// Per-site dispatch-share gate (1 = unthrottled).  The share is a
  /// *concurrency* cap: a throttled site runs at most ceil(share * slots)
  /// tasks at once.  A pull-ratio pacing was tried first and discarded —
  /// denied slots re-pull after the gate delay, so by Little's law any
  /// share > 0 only adds a small per-task latency tax while steady-state
  /// concurrency (and hence squid/chirp load) stays pinned at the slot
  /// count.  The cap actually sheds load.  Deterministic, no RNG.
  std::vector<double> site_share_;
  /// Tasks currently running per site (maintained unconditionally; the
  /// advisor gate in gate_denies compares it against the share cap).
  std::vector<std::size_t> site_running_;

  // ---- wake-on-work dispatch state ----
  /// A slot that finds no work parks on its site's FIFO wait list instead
  /// of polling; whatever makes work appear wakes one parked slot, and a
  /// woken slot that takes a task while work remains wakes the next.
  std::vector<std::deque<WaitEntry>> wait_lists_;
  /// Per slot, indexed by slot_index().
  std::vector<SlotPark> slot_park_;
  /// First node_index() of each site.
  std::vector<std::size_t> node_base_;
  /// Per node: the death time its armed timer fires at (negative when none
  /// was armed), so one timer serves every park of a node life.
  std::vector<double> death_timer_;
  std::size_t cores_per_worker_ = 1;
  std::uint64_t park_seq_ = 0;

  // ---- workload state ----
  std::uint64_t tasklets_done_ = 0;
  std::size_t running_tasks_ = 0;
  std::size_t running_merges_ = 0;
  bool hadoop_started_ = false;
  bool hadoop_done_ = false;
  bool done_ = false;
  double end_time_cap_ = 0.0;
};

}  // namespace lobster::lobsim
