#include "lobsim/engine.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <limits>
#include <stdexcept>
#include <string>

namespace lobster::lobsim {

namespace {
// Exit codes aligned with the wrapper's per-segment failure codes.
constexpr int kExitEnvFailure = 174;    // squid timeout during setup
constexpr int kExitStageInFailure = 171;
constexpr int kExitXrootdFailure = 211; // streaming open failed (outage)
constexpr int kExitStageOutFailure = 173;
constexpr int kExitEvicted = 179;

// A slot the advisor's share gate turns away re-checks after this delay.
// Slots with no work park instead (see park()), but a gate-denied slot
// keeps the timed re-check, which spreads a throttled site's re-admissions
// over the delay.  Parking denied slots and waking them when the advisor
// raises the share lost the fig11 advisor gate (advisor-on goodput 478.8
// against 549.8 with the advisor off).
constexpr double kGateRetryDelay = 60.0;

// wake_one()'s argument for "the longest-parked slot of any site".
constexpr std::size_t kAnySite = std::numeric_limits<std::size_t>::max();

// Charges the simulated time elapsed in its scope to one segment of a
// TaskRecord — on normal exit AND on exception unwind.  Without this, a
// segment that aborts mid-flight (squid connect timeout, stream-open
// failure during an outage) leaves its wall uncharged, the failed task
// finishes with near-zero recorded wall, and the monitor's failure-burst
// signal — the only *timely* symptom of an infrastructure outage, since
// completion statistics lag by a full task length — stays dark exactly
// when the advisor needs it.
class SegmentCharge {
 public:
  SegmentCharge(des::Simulation& sim, core::TaskRecord& record,
                core::Segment segment)
      : sim_(sim),
        slot_(record.segment_time[static_cast<std::size_t>(segment)]),
        t0_(sim.now()) {}
  SegmentCharge(const SegmentCharge&) = delete;
  SegmentCharge& operator=(const SegmentCharge&) = delete;
  ~SegmentCharge() { slot_ += sim_.now() - t0_; }

 private:
  des::Simulation& sim_;
  double& slot_;
  double t0_;
};
}  // namespace

Engine::Engine(ClusterParams cluster, WorkloadParams workload,
               std::uint64_t seed, double metric_bin_seconds)
    : cluster_(std::move(cluster)),
      workload_(std::move(workload)),
      rng_(seed) {
  foreman_fanout_ = std::make_unique<des::BandwidthLink>(
      sim_, static_cast<double>(std::max<std::size_t>(1, cluster_.num_foremen)) *
                cluster_.foreman_uplink_rate);
  chirp_ = std::make_unique<chirp::ChirpSim>(sim_, cluster_.chirp);
  sites_ = std::make_unique<SiteManager>(sim_, cluster_, rng_);
  per_site_tasklets_.assign(sites_->num_sites(), 0);
  site_running_.assign(sites_->num_sites(), 0);
  cores_per_worker_ = std::max<std::size_t>(1, cluster_.cores_per_worker);
  std::size_t num_nodes = 0;
  for (std::size_t s = 0; s < sites_->num_sites(); ++s) {
    node_base_.push_back(num_nodes);
    num_nodes += sites_->num_workers(s);
  }
  slot_park_.resize(num_nodes * cores_per_worker_);
  death_timer_.assign(num_nodes, -1.0);
  wait_lists_.resize(sites_->num_sites());

  dispatch_ = make_dispatch_policy(workload_.dispatch,
                                   workload_.tasklets_per_task,
                                   workload_.lifetime_safety,
                                   workload_.lifetime_max_tasklets,
                                   workload_.steal_min_backlog);
  dispatch_->add_tasklets(workload_.num_tasklets);
  // Per-site policies split the pool by slot share; a no-op for the rest.
  {
    std::vector<std::uint64_t> site_slots;
    site_slots.reserve(sites_->num_sites());
    for (std::size_t s = 0; s < sites_->num_sites(); ++s)
      site_slots.push_back(sites_->site_params(s).target_cores);
    dispatch_->partition(site_slots);
  }
  stealing_ = dynamic_cast<StealingDispatch*>(dispatch_.get());
  planner_ = MergePlanner::make(workload_.merge_mode, workload_.merge_policy);

  metrics_ = std::make_unique<EngineMetrics>(metric_bin_seconds);

  auto& counters = sim_.counters();
  ctr_tasks_dispatched_ = &counters.counter("lobsim.engine.tasks_dispatched");
  ctr_tasks_completed_ = &counters.counter("lobsim.engine.tasks_completed");
  ctr_tasks_failed_ = &counters.counter("lobsim.engine.tasks_failed");
  ctr_tasks_evicted_ = &counters.counter("lobsim.engine.tasks_evicted");
  ctr_tasklets_processed_ = &counters.counter("lobsim.engine.tasklets_processed");
  ctr_tasklets_retried_ = &counters.counter("lobsim.engine.tasklets_retried");
  ctr_merges_completed_ = &counters.counter("lobsim.engine.merge_tasks_completed");
  ctr_slot_parks_ = &counters.counter("lobsim.engine.slot_parks");
  ctr_slot_wakes_ = &counters.counter("lobsim.engine.slot_wakes");
  if (stealing_) {
    ctr_steal_attempts_ = &counters.counter("lobsim.steal.attempts");
    ctr_steal_tasks_ = &counters.counter("lobsim.steal.tasks");
    ctr_steal_bytes_penalty_ = &counters.gauge("lobsim.steal.bytes_penalty");
  }
}

Engine::~Engine() = default;

void Engine::enable_tracing(const std::string& path, util::TraceFormat format) {
  sim_.tracer().open(format, path);
}

/// The whole actuation surface the advisor may touch (advisor.hpp's
/// AdvisorActions): task sizing through the dispatch policy's cap, dispatch
/// share through the per-site gate in core_slot().  Neither makes work
/// appear, so neither wakes a parked slot.
struct Engine::AdvisorPort final : AdvisorActions {
  explicit AdvisorPort(Engine& engine) : engine_(engine) {}

  void set_task_size_cap(std::uint32_t cap) override {
    engine_.dispatch_->set_size_cap(cap);
  }

  void set_dispatch_share(std::size_t site, double share) override {
    if (site >= engine_.site_share_.size()) return;
    engine_.site_share_[site] = share;
  }

 private:
  Engine& engine_;
};

void Engine::enable_advisor(const AdvisorConfig& config) {
  advisor_cfg_ = config;
  advisor_cfg_.enabled = true;
  advisor_ =
      std::make_unique<Advisor>(advisor_cfg_, workload_.tasklets_per_task,
                                sites_->num_sites());
  advisor_port_ = std::make_unique<AdvisorPort>(*this);
  site_share_.assign(sites_->num_sites(), 1.0);
  auto& counters = sim_.counters();
  ctr_advisor_ticks_ = &counters.counter("lobsim.advisor.ticks");
  ctr_advisor_shrinks_ = &counters.counter("lobsim.advisor.shrinks");
  ctr_advisor_throttles_ = &counters.counter("lobsim.advisor.throttles");
  ctr_advisor_drains_ = &counters.counter("lobsim.advisor.drains");
  ctr_advisor_restores_ = &counters.counter("lobsim.advisor.restores");
  ctr_advisor_share_ = &counters.gauge("lobsim.advisor.dispatch_share");
  ctr_advisor_ewma_ = &counters.gauge("lobsim.advisor.failure_ewma");
  ctr_advisor_share_->set(1.0);
}

std::uint64_t Engine::task_track(const WorkerNode& node, std::size_t slot) {
  // 64-bit track id: site in the top bits, 24 bits of node id, 16 bits of
  // slot — wide enough that concurrently running tasks never collide (a
  // collision would interleave begin/end events and fail validate_trace).
  return ((static_cast<std::uint64_t>(node.site) + 1) << 40) |
         ((static_cast<std::uint64_t>(node.id) & 0xFFFFFF) << 16) |
         (static_cast<std::uint64_t>(slot) & 0xFFFF);
}

void Engine::schedule_outage(double start, double duration) {
  sites_->schedule_outage(start, duration);
}

const EngineMetrics& Engine::run(double time_cap) {
  end_time_cap_ = time_cap;
  sites_->start(
      [this](NodeHandle node, std::size_t slot) {
        return core_slot(node, slot);
      },
      [this] { return done_; }, time_cap);
  sim_.spawn(
      gauge_sampler(metrics_->monitor.running_timeline().bin_width() / 3.0));
  if (advisor_) sim_.spawn(advisor_loop(advisor_cfg_.period));
  // Advance in slices so progress is observable at Debug log level and a
  // stuck scenario is diagnosable.  Once the workflow is done and every
  // process has exited, only stale death timers of parked slots can be
  // pending; they must not advance the clock.
  double t = 0.0;
  while (t < time_cap && sim_.pending_events() > 0 &&
         !(done_ && sim_.live_processes() == 0)) {
    t = std::min(time_cap, t + 3600.0);
    sim_.run_until(t);
    LOBSTER_LOG_DEBUG("lobsim",
                      "t=%.0fs events=%llu running=%zu pending_tasklets=%llu "
                      "done=%llu merges_q=%zu done_flag=%d",
                      sim_.now(),
                      static_cast<unsigned long long>(sim_.events_executed()),
                      running_tasks_,
                      static_cast<unsigned long long>(
                          dispatch_->tasklets_pending()),
                      static_cast<unsigned long long>(tasklets_done_),
                      dispatch_->merge_backlog(), done_ ? 1 : 0);
  }
  metrics_->makespan =
      std::max(metrics_->last_analysis_finish, metrics_->last_merge_finish);
  // A truncated run (time cap hit, or every worker dead with work pending)
  // still reports the finish times above, but they are lower bounds, not a
  // makespan — `completed` is the signal consumers must check.
  metrics_->completed = done_;
  metrics_->bytes_streamed = 0.0;
  metrics_->bytes_staged = 0.0;
  for (std::size_t s = 0; s < sites_->num_sites(); ++s) {
    metrics_->bytes_streamed += sites_->federation(s).bytes_streamed();
    metrics_->bytes_staged += sites_->federation(s).bytes_staged();
  }
  metrics_->bytes_staged_out = chirp_->bytes_in();
  // Task outcomes are counted once, on the counter plane; this block is the
  // only writer of their RunStats mirrors.  A counter that was never
  // registered (advisor off, or a non-stealing policy) reads 0.
  const auto value = [](const auto* c) {
    return c ? c->value() : decltype(c->value()){};
  };
  metrics_->tasks_completed = value(ctr_tasks_completed_);
  metrics_->tasks_failed = value(ctr_tasks_failed_);
  metrics_->tasks_evicted = value(ctr_tasks_evicted_);
  metrics_->merge_tasks_completed = value(ctr_merges_completed_);
  metrics_->tasklets_processed = value(ctr_tasklets_processed_);
  metrics_->tasklets_retried = value(ctr_tasklets_retried_);
  metrics_->steal_attempts = value(ctr_steal_attempts_);
  metrics_->steal_tasks = value(ctr_steal_tasks_);
  metrics_->steal_bytes_penalty = value(ctr_steal_bytes_penalty_);
  metrics_->advisor_ticks = value(ctr_advisor_ticks_);
  metrics_->advisor_shrinks = value(ctr_advisor_shrinks_);
  metrics_->advisor_throttles = value(ctr_advisor_throttles_);
  metrics_->advisor_drains = value(ctr_advisor_drains_);
  metrics_->advisor_restores = value(ctr_advisor_restores_);
  metrics_->breakdown = metrics_->monitor.breakdown();
  if (sim_.tracer().enabled()) {
    // Final name-ordered counter snapshot, then one atomic flush.  Spans
    // still open in truncated runs stay open in the file — that is the
    // honest record of a time-capped task.
    for (const auto& sample : sim_.counters().snapshot())
      sim_.tracer().counter(sample.name.c_str(), sample.value);
    sim_.tracer().close();
  }
  return *metrics_;
}

des::Process Engine::gauge_sampler(double period) {
  // Keep the running-tasks gauge populated even in bins where no task
  // starts or finishes.
  while (!done_ && sim_.now() < end_time_cap_) {
    metrics_->monitor.sample_running(sim_.now(), running_tasks_);
    sim_.tracer().counter("lobsim.engine.running_tasks",
                          static_cast<double>(running_tasks_));
    co_await sim_.delay(period);
  }
}

des::Process Engine::advisor_loop(double period) {
  // Baseline for the first window: the counter plane at advisor start.
  advisor_prev_snap_ = sim_.counters().snapshot();
  while (!done_ && sim_.now() < end_time_cap_) {
    co_await sim_.delay(period);
    if (done_ || sim_.now() >= end_time_cap_) break;
    // Windowed counter rates via snapshot_delta: what moved since the last
    // tick, without scanning traces.
    const auto snap = sim_.counters().snapshot();
    const auto delta =
        util::CounterRegistry::snapshot_delta(advisor_prev_snap_, snap);
    advisor_prev_snap_ = snap;
    double failed_window = 0.0;
    double retried_window = 0.0;
    AdvisorGauges gauges;
    for (const auto& sample : delta) {
      if (sample.name == "lobsim.engine.tasks_failed")
        failed_window = sample.value;
      else if (sample.name == "lobsim.engine.tasklets_retried")
        retried_window = sample.value;
      else if (sample.name == "cvmfs.squid.bytes_served")
        gauges.proxy_bytes_served = sample.value;
      else if (sample.name == "cvmfs.squid.bytes_thrashed")
        gauges.proxy_bytes_thrashed = sample.value;
    }

    const std::vector<AdvisorDecision> decisions =
        advisor_->tick(sim_.now(), metrics_->monitor, gauges, *advisor_port_);
    ctr_advisor_ticks_->add();
    ctr_advisor_share_->set(advisor_->dispatch_share());
    ctr_advisor_ewma_->set(advisor_->failure_ewma());
    sim_.tracer().instant(
        "lobsim", "advisor_tick", 0,
        {{"failed_tasks", failed_window},
         {"retried_tasklets", retried_window},
         {"failure_ewma", advisor_->failure_ewma()},
         {"proxy_waste_frac", advisor_->proxy_waste_frac()},
         {"share", advisor_->dispatch_share()},
         {"cap", static_cast<double>(advisor_->task_size_cap())}});
    for (const AdvisorDecision& d : decisions) {
      switch (d.kind) {
        case AdvisorDecision::Kind::Shrink:
          ctr_advisor_shrinks_->add();
          break;
        case AdvisorDecision::Kind::Throttle:
          ctr_advisor_throttles_->add();
          break;
        case AdvisorDecision::Kind::Drain:
          ctr_advisor_drains_->add();
          break;
        case AdvisorDecision::Kind::Restore:
          ctr_advisor_restores_->add();
          break;
        case AdvisorDecision::Kind::Advise:
          break;
      }
      const std::string name = std::string("advisor_") + to_string(d.kind);
      sim_.tracer().instant(
          "lobsim", name.c_str(), 0,
          {{"rule", static_cast<double>(static_cast<int>(d.rule))},
           {"value", d.value},
           {"severity", d.severity}});
    }
  }
}

/// The awaitable a slot with no work suspends on: it joins its site's wait
/// list until a work source, its node's death or workflow completion
/// resumes it.
struct Engine::Park {
  Engine& engine;
  const WorkerNode& node;
  std::size_t slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) {
    engine.park(node, slot, handle);
  }
  void await_resume() const noexcept {}
};

des::Process Engine::core_slot(NodeHandle handle, std::size_t slot) {
  WorkerNode& node = sites_->node(handle);  // stable dense-array slot
  while (!done_ && sim_.now() < node.death && sim_.now() < end_time_cap_) {
    if (gate_denies(node.site)) {
      co_await sim_.delay(kGateRetryDelay);
      continue;
    }
    auto task = next_task(node);
    if (!task) {
      if (workflow_complete()) co_return;
      // Momentarily idle (e.g. waiting for merge work): park until work
      // appears.
      co_await Park{*this, node, slot};
      continue;
    }
    // Work is left after this pull: hand the wake on down the wait list.
    if (!dispatch_->idle()) wake_one(node.site);
    ++running_tasks_;
    if (node.site < site_running_.size()) ++site_running_[node.site];
    metrics_->peak_running = std::max(metrics_->peak_running, running_tasks_);
    metrics_->monitor.sample_running(sim_.now(), running_tasks_);
    ctr_tasks_dispatched_->add();

    const std::uint64_t track = task_track(node, slot);
    util::Span span = sim_.tracer().span(
        "task", task->is_merge ? "merge" : "analysis", track);

    core::TaskRecord record;
    record.submit_time = sim_.now();
    bool success = false;
    bool evicted = false;
    try {
      success = co_await run_task(node, slot, *task, record);
      evicted = !success && record.status == core::TaskStatus::Evicted;
    } catch (const xrootd::AccessError&) {
      record.exit_code = task->is_merge ? kExitStageInFailure
                                        : kExitXrootdFailure;
    } catch (const cvmfs::SquidSim::TimeoutError&) {
      record.exit_code = kExitEnvFailure;
    }
    --running_tasks_;
    if (node.site < site_running_.size()) --site_running_[node.site];
    metrics_->monitor.sample_running(sim_.now(), running_tasks_);
    const bool failed = !success && !evicted;
    finish_task(*task, record, success, evicted, node.site);
    if (span) {
      // The end event carries the authoritative record: segment spans show
      // the timeline, but reconstruction (trace_replay) uses these args so
      // the rebuilt breakdown matches Monitor::breakdown() exactly, even on
      // exception paths where a segment aborted mid-flight.
      span.arg("status", static_cast<double>(record.status));
      span.arg("exit", static_cast<double>(record.exit_code));
      span.arg("tasklets", static_cast<double>(task->n_tasklets));
      span.arg("cpu", record.cpu_time);
      span.arg("lost", record.lost_time);
      for (std::size_t s = 0; s < core::kNumSegments; ++s)
        span.arg(core::to_string(static_cast<core::Segment>(s)),
                 record.segment_time[s]);
      span.end();
    }
    if (failed && workload_.failure_backoff > 0.0)
      co_await sim_.delay(workload_.failure_backoff);
  }
}

des::Task<void> Engine::setup_software(WorkerNode& node, std::size_t slot,
                                       core::TaskRecord& record) {
  auto& squid = sites_->squid(node.site, node.squid);
  const auto mode = workload_.cache_mode;
  SegmentCharge charge(sim_, record, core::Segment::EnvSetup);
  util::Span span =
      sim_.tracer().span("segment", "env_setup", task_track(node, slot));

  // Cold population: the ~1.5 GB working set (paper §4.3), split into the
  // shared head (hot in the proxy once any worker pulled it) and this
  // node's tail (a proxy miss that goes upstream).  Population happens
  // once per worker life (Alien/Exclusive share a copy) or once per slot
  // (PerInstance re-downloads it in every cache directory).
  auto populate = [&]() -> des::Task<void> {
    const bool proxy_hot = squid.note_request("release-head");
    co_await squid.fetch(workload_.release_shared_bytes, proxy_hot);
    co_await squid.fetch(workload_.release_tail_bytes, false);
  };

  if (mode == cvmfs::CacheMode::PerInstance) {
    if (!node.slot_head_ready[slot]) {
      co_await populate();
      node.slot_head_ready[slot] = true;
    }
  } else {
    // Alien and Exclusive share one copy per node.  Exclusive additionally
    // holds the whole-cache write lock across population and across every
    // later access (Figure 6(a)); Alien populates and serves concurrently.
    using CS = WorkerNode::CacheState;
    while (node.cache_state != CS::Ready) {
      if (node.cache_state == CS::Cold) {
        node.cache_state = CS::Populating;
        auto round = node.cache_round;
        try {
          if (mode == cvmfs::CacheMode::Exclusive) {
            auto lock = co_await node.cache_lock->acquire();
            co_await populate();
          } else {
            co_await populate();
          }
        } catch (...) {
          // Failed population must not strand the waiting slots: return
          // to Cold and wake this round so another slot retries.
          node.cache_state = CS::Cold;
          node.cache_round = sim_.make_event();
          round->trigger();
          throw;
        }
        node.cache_state = CS::Ready;
        round->trigger();
      } else {  // Populating: wait for this round to resolve, then recheck.
        auto round = node.cache_round;
        co_await *round;
      }
    }
  }

  // Hot-cache traffic for everything beyond the first task is small; under
  // the exclusive discipline even these accesses take the write lock.
  if (mode == cvmfs::CacheMode::Exclusive) {
    auto lock = co_await node.cache_lock->acquire();
    co_await squid.fetch(workload_.hot_setup_bytes, true);
  } else {
    co_await squid.fetch(workload_.hot_setup_bytes, true);
  }
}

des::Task<bool> Engine::run_task(WorkerNode& node, std::size_t slot,
                                 TaskUnit task, core::TaskRecord& record) {
  auto seg = [&record](core::Segment s) -> double& {
    return record.segment_time[static_cast<std::size_t>(s)];
  };
  const std::uint64_t track = task_track(node, slot);
  const double start = sim_.now();
  auto evicted_now = [&]() { return sim_.now() >= node.death; };
  auto mark_evicted = [&]() {
    record.status = core::TaskStatus::Evicted;
    record.exit_code = kExitEvicted;
    record.lost_time = std::min(sim_.now(), node.death) - start;
  };

  if (task.is_merge) {
    // Merge task: inputs via XrootD, CPU ~ proportional to volume, output
    // staged via Chirp (paper §4.4).
    {
      util::Span s = sim_.tracer().span("segment", "stage_in", track);
      SegmentCharge charge(sim_, record, core::Segment::StageIn);
      co_await sites_->federation(node.site).stage(task.merge_input_bytes);
    }
    if (evicted_now()) {
      mark_evicted();
      co_return false;
    }
    const double cpu =
        workload_.merge_cpu_per_gb * task.merge_input_bytes / 1e9;
    {
      util::Span s = sim_.tracer().span("segment", "execute", track);
      co_await sim_.delay(cpu);
    }
    record.cpu_time += cpu;
    seg(core::Segment::Execute) += cpu;
    {
      util::Span s = sim_.tracer().span("segment", "stage_out", track);
      SegmentCharge charge(sim_, record, core::Segment::StageOut);
      co_await chirp_->put(task.merge_input_bytes);
    }
    if (evicted_now()) {
      mark_evicted();
      co_return false;
    }
    record.status = core::TaskStatus::Done;
    co_return true;
  }

  // ---- analysis task ----
  co_await setup_software(node, slot, record);
  if (evicted_now()) {
    mark_evicted();
    co_return false;
  }

  // Sandbox + task payload from the master through the foreman fan-out.
  if (workload_.sandbox_bytes > 0.0) {
    {
      util::Span s = sim_.tracer().span("segment", "stage_in", track);
      s.arg("sandbox_bytes", workload_.sandbox_bytes);
      SegmentCharge charge(sim_, record, core::Segment::StageIn);
      co_await foreman_fanout_->transfer(workload_.sandbox_bytes);
    }
    if (evicted_now()) {
      mark_evicted();
      co_return false;
    }
  }

  const double input_bytes =
      workload_.tasklet_input_bytes * task.n_tasklets;

  // Data-locality penalty of a stolen task: the thief's squids have never
  // seen the victim dataset's conditions payload (cold fetch), and a
  // penalty fraction of the input must come across the WAN through the
  // thief site's own uplink before the task can run.
  if (task.stolen) {
    const double wan_bytes = workload_.steal_penalty_factor * input_bytes;
    {
      util::Span s = sim_.tracer().span("segment", "steal_penalty", track);
      s.arg("bytes", wan_bytes);
      SegmentCharge charge(sim_, record, core::Segment::StageIn);
      co_await sites_->squid(node.site, node.squid)
          .fetch(workload_.hot_setup_bytes, false);
      if (wan_bytes > 0.0)
        co_await sites_->federation(node.site).stage(wan_bytes);
    }
    ctr_steal_bytes_penalty_->add(wan_bytes + workload_.hot_setup_bytes);
    if (evicted_now()) {
      mark_evicted();
      co_return false;
    }
  }

  if (workload_.access == core::DataAccessMode::Stage && input_bytes > 0.0) {
    {
      util::Span s = sim_.tracer().span("segment", "stage_in", track);
      s.arg("input_bytes", input_bytes);
      SegmentCharge charge(sim_, record, core::Segment::StageIn);
      co_await sites_->federation(node.site).stage(input_bytes);
    }
    if (evicted_now()) {
      mark_evicted();
      co_return false;
    }
  }

  // Execute.  The task's CPU demand is the sum of its tasklets' draws (the
  // Figure 3 distribution).  In stream mode the application reads only
  // read_fraction of the input over the WAN, but those reads are
  // synchronous — the event loop stalls on them, so I/O time adds to the
  // wall clock (the "Task I/O Time" row of Figure 8).  Eviction is checked
  // at ~tasklet-sized boundaries by chunking the CPU delay.
  double cpu_total = 0.0;
  for (std::uint32_t i = 0; i < task.n_tasklets; ++i)
    cpu_total += node.rng.truncated_normal(workload_.tasklet_cpu_mean,
                                            workload_.tasklet_cpu_sigma, 1.0);
  double stream_bytes = 0.0;
  if (workload_.access == core::DataAccessMode::Stream && input_bytes > 0.0)
    stream_bytes = input_bytes * workload_.read_fraction;
  else if (workload_.pileup_bytes > 0.0)
    stream_bytes = workload_.pileup_bytes * task.n_tasklets;  // MC overlay

  if (stream_bytes > 0.0) {
    {
      util::Span s = sim_.tracer().span("segment", "execute_io", track);
      s.arg("stream_bytes", stream_bytes);
      SegmentCharge charge(sim_, record, core::Segment::ExecuteIo);
      co_await sites_->federation(node.site).stream(stream_bytes);
    }
    if (evicted_now()) {
      mark_evicted();
      co_return false;
    }
  }
  {
    util::Span s = sim_.tracer().span("segment", "execute", track);
    s.arg("cpu", cpu_total);
    double residual = cpu_total;
    const double chunk = std::max(60.0, workload_.tasklet_cpu_mean);
    while (residual > 0.0) {
      const double step = std::min(residual, chunk);
      co_await sim_.delay(step);
      residual -= step;
      if (evicted_now()) {
        record.cpu_time += cpu_total - residual;
        mark_evicted();
        co_return false;
      }
    }
  }
  record.cpu_time += cpu_total;
  seg(core::Segment::Execute) += cpu_total;

  // Stage out through the Chirp server.
  {
    util::Span s = sim_.tracer().span("segment", "stage_out", track);
    SegmentCharge charge(sim_, record, core::Segment::StageOut);
    co_await chirp_->put(workload_.tasklet_output_bytes * task.n_tasklets);
  }
  if (evicted_now()) {
    mark_evicted();
    co_return false;
  }
  record.status = core::TaskStatus::Done;
  co_return true;
}

bool Engine::gate_denies(std::size_t site) const {
  // Advisor dispatch-share gate: a throttled site runs at most
  // ceil(share * slots) concurrent tasks.  A denied slot waits
  // kGateRetryDelay and re-checks, so a drain (share 0) leaves running
  // tasks untouched and the site refills promptly once the share recovers.
  // The cap bounds *concurrency*, which is what actually sheds load from
  // the shared services (squid, chirp, uplinks); a pull-ratio pacing
  // cannot, because denied slots retry and Little's law pins steady-state
  // concurrency at the slot count regardless of the grant ratio.
  if (!advisor_ || site >= site_share_.size()) return false;
  const double share = site_share_[site];
  if (share >= 1.0) return false;
  const double slots =
      static_cast<double>(sites_->site_params(site).target_cores);
  const auto cap = static_cast<std::size_t>(std::ceil(share * slots));
  return site_running_[site] >= cap;
}

std::optional<TaskUnit> Engine::next_task(const WorkerNode& node) {
  // One pull per slot that has just finished a task or was just woken: a
  // slot that finds nothing parks rather than asking again on a timer.
  DispatchContext ctx;
  ctx.total_slots = sites_->total_slots();
  ctx.site = node.site;
  ctx.site_evictable = sites_->site_evictable(node.site);
  ctx.now = sim_.now();
  ctx.expected_remaining_lifetime =
      sites_->expected_remaining_lifetime(node.site, ctx.now);
  ctx.tasklet_cpu_mean = workload_.tasklet_cpu_mean;
  auto task = dispatch_->next(ctx);
  if (stealing_) {
    // Mirror the policy's attempt count (it ticks even on failed pulls) and
    // announce successful steals on the trace plane.
    const std::uint64_t attempts = stealing_->steal_attempts();
    const std::uint64_t mirrored = ctr_steal_attempts_->value();
    if (attempts > mirrored) ctr_steal_attempts_->add(attempts - mirrored);
    if (task && task->stolen) {
      ctr_steal_tasks_->add();
      sim_.tracer().instant(
          "lobsim", "steal", 0,
          {{"victim", static_cast<double>(task->victim_site)},
           {"thief", static_cast<double>(node.site)},
           {"tasklets", static_cast<double>(task->n_tasklets)}});
    }
  }
  if (task && task->is_merge) ++running_merges_;
  return task;
}

void Engine::finish_task(const TaskUnit& task, core::TaskRecord& record,
                         bool success, bool evicted, std::size_t site) {
  const double now = sim_.now();
  record.finish_time = now;
  record.kind = task.is_merge ? core::TaskKind::Merge : core::TaskKind::Analysis;
  if (success) {
    record.status = core::TaskStatus::Done;
  } else if (evicted) {
    record.status = core::TaskStatus::Evicted;
    ctr_tasks_evicted_->add();
    sim_.tracer().instant("lobsim", "task_evicted", 0,
                          {{"tasklets", static_cast<double>(task.n_tasklets)}});
  } else {
    record.status = core::TaskStatus::Failed;
    ctr_tasks_failed_->add();
    metrics_->failure_events.emplace_back(now, record.exit_code);
    sim_.tracer().instant("lobsim", "task_failed", 0,
                          {{"exit", static_cast<double>(record.exit_code)}});
  }
  metrics_->monitor.on_task_finished(record);

  if (task.is_merge) {
    --running_merges_;
    if (success) {
      ctr_merges_completed_->add();
      metrics_->merge_done.add(now);
      metrics_->last_merge_finish = now;
    } else {
      // The group's outputs return to the unmerged pool.
      planner_->return_group(task.merge_input_bytes);
    }
  } else {
    if (success) {
      ctr_tasks_completed_->add();
      metrics_->analysis_done.add(now);
      metrics_->last_analysis_finish = now;
      tasklets_done_ += task.n_tasklets;
      ctr_tasklets_processed_->add(task.n_tasklets);
      per_site_tasklets_[site] += task.n_tasklets;
      planner_->add_output(workload_.tasklet_output_bytes * task.n_tasklets);
    } else {
      // Retry: the tasklets re-enter the pool they were drawn from — a
      // stolen chunk goes back to its victim's partition, not the thief's —
      // and wake a slot there (or, where that pool is open to them, a
      // slot elsewhere: a single pool, or a thief once the backlog reaches
      // the steal minimum).
      const std::size_t pool = task.stolen ? task.victim_site : site;
      dispatch_->return_tasklets(pool, task.n_tasklets);
      ctr_tasklets_retried_->add(task.n_tasklets);
      wake_one(pool);
    }
  }

  auto plan = planner_->plan(tasklets_done_, workload_.num_tasklets,
                             analysis_complete());
  for (double group_bytes : plan.groups) {
    dispatch_->push_merge_group(group_bytes);
    sim_.tracer().instant("lobsim", "merge_planned", 0,
                          {{"bytes", group_bytes}});
    wake_one(kAnySite);
  }
  if (plan.start_hadoop && !hadoop_started_) {
    hadoop_started_ = true;
    sim_.spawn(hadoop_merge());
  }

  check_done();
}

des::Process Engine::hadoop_merge() {
  // Merging via Hadoop (paper §4.4): a Map-Reduce job inside the storage
  // cluster.  Reducers run concurrently up to the slot limit; each reads
  // its group from HDFS locally and writes the merged file back — no Chirp
  // or WAN involvement.
  std::vector<double> groups = planner_->take_hadoop_groups();

  des::Resource slots(sim_, workload_.hadoop_reduce_slots);
  std::vector<des::ProcessRef> reducers;
  auto reducer = [](Engine* self, des::Resource& res, double bytes,
                    std::size_t index) -> des::Process {
    auto slot = co_await res.acquire();
    // Transfer the group to the local machine, create the HEP environment,
    // concatenate, write back at HDFS-local rates (paper §4.4).
    {
      // Reducers run inside the storage cluster, not on a worker slot:
      // give them their own track family so they never collide with task
      // spans.
      util::Span span = self->sim_.tracer().span(
          "task", "hadoop_reduce", (1ULL << 40) | index);
      span.arg("bytes", bytes);
      co_await self->sim_.delay(self->workload_.hadoop_reduce_setup +
                                bytes / self->workload_.hadoop_local_rate);
    }
    const double now = self->sim_.now();
    self->ctr_merges_completed_->add();
    self->metrics_->merge_done.add(now);
    self->metrics_->last_merge_finish = now;
  };
  reducers.reserve(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i)
    reducers.push_back(sim_.spawn(reducer(this, slots, groups[i], i)));
  for (auto& ref : reducers) co_await ref.done();
  hadoop_done_ = true;
  check_done();
}

bool Engine::analysis_complete() const {
  return tasklets_done_ >= workload_.num_tasklets &&
         dispatch_->tasklets_pending() == 0;
}

bool Engine::workflow_complete() const {
  if (!analysis_complete()) return false;
  if (planner_->mode() == core::MergeMode::Hadoop)
    return hadoop_started_ ? hadoop_done_ : false;
  return planner_->drained() && dispatch_->merge_backlog() == 0 &&
         running_merges_ == 0;
}

void Engine::check_done() {
  if (done_ || !workflow_complete()) return;
  done_ = true;
  for (std::size_t site = 0; site < wait_lists_.size(); ++site) {
    for (const WaitEntry& e : wait_lists_[site])
      if (slot_park_[e.slot].ticket == e.ticket) wake(e.slot);
    wait_lists_[site].clear();
  }
}

std::size_t Engine::node_index(const WorkerNode& node) const {
  return node_base_[node.site] + node.id;
}

std::size_t Engine::slot_index(const WorkerNode& node, std::size_t slot) const {
  return node_index(node) * cores_per_worker_ + slot;
}

void Engine::park(const WorkerNode& node, std::size_t slot,
                  std::coroutine_handle<> handle) {
  const std::size_t id = slot_index(node, slot);
  slot_park_[id] = SlotPark{handle, ++park_seq_};
  wait_lists_[node.site].push_back(WaitEntry{id, park_seq_});
  ctr_slot_parks_->add();
  // A parked slot must still leave at its node's death, since worker_life
  // waits for every slot before the worker may rejoin.  The first park of
  // a node life arms one timer for all of its slots.  A death at or past
  // the time cap needs none: the run stops there.
  const std::size_t n = node_index(node);
  if (node.death < end_time_cap_ && death_timer_[n] != node.death) {
    death_timer_[n] = node.death;
    const WorkerNode* dying = &node;
    sim_.schedule(node.death - sim_.now(),
                  [this, dying] { wake_dead_node(*dying); });
  }
}

void Engine::wake(std::size_t slot) {
  SlotPark& p = slot_park_[slot];
  p.ticket = 0;
  ctr_slot_wakes_->add();
  sim_.schedule_resume(0.0, p.handle);
}

bool Engine::prune_front(std::size_t site) {
  auto& list = wait_lists_[site];
  while (!list.empty() &&
         slot_park_[list.front().slot].ticket != list.front().ticket)
    list.pop_front();
  return !list.empty();
}

void Engine::wake_one(std::size_t site) {
  std::size_t chosen = wait_lists_.size();
  if (site < wait_lists_.size() && dispatch_->has_work_for(site) &&
      prune_front(site)) {
    chosen = site;
  } else {
    // The longest-parked slot of any site with work: the smallest park
    // sequence number among the list fronts.
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < wait_lists_.size(); ++s) {
      if (prune_front(s) && wait_lists_[s].front().ticket < oldest &&
          dispatch_->has_work_for(s)) {
        oldest = wait_lists_[s].front().ticket;
        chosen = s;
      }
    }
    if (chosen == wait_lists_.size()) return;
  }
  const std::size_t slot = wait_lists_[chosen].front().slot;
  wait_lists_[chosen].pop_front();
  wake(slot);
}

void Engine::wake_dead_node(const WorkerNode& node) {
  // The timer fires at the death it was armed for, before the worker can
  // rejoin (worker_life waits for these very slots), so the life it
  // belongs to is the current one.
  const std::size_t first = slot_index(node, 0);
  for (std::size_t id = first; id < first + cores_per_worker_; ++id)
    if (slot_park_[id].ticket != 0) wake(id);
}

}  // namespace lobster::lobsim
