// dispatch_policy.hpp — task construction, extracted from the Engine.
//
// Lobster's master decides what a pulling worker slot runs next: a planned
// merge group, or an analysis task assembled from the pending tasklet pool
// (paper §4.1: "jobs are created on demand ... sized to the expected
// lifetime of the worker").  That decision used to live inline in
// Engine::next_task(); it is now a policy object so scenario studies can
// swap strategies without touching the simulation loop:
//
//  * Fifo       — fixed task size (`tasklets_per_task`), the production
//                 default the paper measured;
//  * TailShrink — shrink to single tasklets once the pending pool fits in
//                 the slot count, so the drain phase does not deepen the
//                 eviction-retry chains of the last stragglers (the §8
//                 task-size adaptivity; see fig12/fig14);
//  * SiteAware  — size per requesting site: dedicated (non-evicting) sites
//                 take full tasks, sites under an eviction climate take
//                 half-size ones to bound the work lost per eviction;
//  * Lifetime   — size against the requesting site's availability
//                 distribution: expected remaining worker lifetime divided
//                 by the mean tasklet CPU, scaled by a safety factor — the
//                 literal §4.1 sizing rule, now that every
//                 AvailabilityModel answers expected_lifetime(now);
//  * Partitioned — the pending pool is statically apportioned across sites
//                 by slot count (largest-remainder); each site drains only
//                 its own share.  The multi-site strawman: an idle site
//                 stays idle while a bursty one drowns in retries;
//  * Stealing   — Partitioned, plus work stealing: a site whose share has
//                 drained takes a task-sized chunk from the deepest
//                 sibling backlog (above a minimum, so the drain tail is
//                 not churned).  The Engine charges stolen tasks the
//                 victim-vs-thief data penalty (cold squid, WAN transfer
//                 through the thief's uplink), so stealing is
//                 locality-aware rather than free.
//
// The policy owns the dispatchable pools (pending tasklets, planned merge
// groups) and is pure logic over them — no DES types — so it unit-tests
// without running a simulation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace lobster::lobsim {

/// One dispatched task: either a group of tasklets or a merge group.
struct TaskUnit {
  bool is_merge = false;
  std::uint32_t n_tasklets = 0;
  double merge_input_bytes = 0.0;  ///< total inputs to a merge task
  /// Work-stealing provenance: the tasklets came out of another site's
  /// partition.  The Engine charges the thief the data-locality penalty
  /// and, on retry, returns the tasklets to the victim's pool.
  bool stolen = false;
  std::size_t victim_site = 0;
};

/// What a policy may consult when constructing the next task.
struct DispatchContext {
  /// Cluster-wide core count (every site's target_cores summed).
  std::uint64_t total_slots = 0;
  /// Requesting worker's site and whether that site evicts workers.
  std::size_t site = 0;
  bool site_evictable = true;
  /// Simulated time of this pull.
  double now = 0.0;
  /// Expected remaining lifetime of a worker on the requesting site at
  /// `now` (SiteManager::expected_remaining_lifetime; infinity on a
  /// dedicated site).
  double expected_remaining_lifetime = std::numeric_limits<double>::infinity();
  /// Mean CPU seconds of one tasklet (WorkloadParams::tasklet_cpu_mean).
  double tasklet_cpu_mean = 0.0;
};

enum class DispatchMode : std::uint8_t { Fifo, TailShrink, SiteAware,
                                         Lifetime, Partitioned, Stealing };
const char* to_string(DispatchMode m);

class DispatchPolicy {
 public:
  virtual ~DispatchPolicy() = default;
  virtual const char* name() const = 0;

  // ---- dispatchable pools (owned here; the Engine only feeds them) ----

  /// Tasklets enter the pool at workflow start and on failed-task retry.
  void add_tasklets(std::uint64_t n) { tasklets_pending_ += n; }
  [[nodiscard]] std::uint64_t tasklets_pending() const { return tasklets_pending_; }

  /// A planned merge task of `total_bytes` input volume.
  void push_merge_group(double total_bytes) {
    merge_queue_.push_back(total_bytes);
  }
  std::size_t merge_backlog() const { return merge_queue_.size(); }

  bool idle() const { return tasklets_pending_ == 0 && merge_queue_.empty(); }

  /// Whether next() would hand a slot of `site` a task right now.  The
  /// Engine wakes a parked slot only where this holds, so a wake is never
  /// spent on a site whose pull would come back empty.
  [[nodiscard]] virtual bool has_work_for(std::size_t site) const {
    (void)site;
    return !idle();
  }

  /// Apportion the already-added pending pool across sites weighted by
  /// their slot counts.  A no-op for the single-pool policies; the
  /// per-site policies (Partitioned, Stealing) split the pool here.  Call
  /// once, after the initial add_tasklets(), before the first next().
  virtual void partition(const std::vector<std::uint64_t>& site_slots) {
    (void)site_slots;
  }

  /// Failed/evicted tasklets re-enter the pool.  `site` is the pool the
  /// work was drawn from (the victim's site for a stolen task); single-pool
  /// policies ignore it.
  virtual void return_tasklets(std::size_t site, std::uint64_t n) {
    (void)site;
    add_tasklets(n);
  }

  /// Construct the next task for a pulling slot: merge groups first (their
  /// outputs gate publication), then an analysis task whose size the
  /// concrete policy chooses.  nullopt when both pools are empty (or, for
  /// the per-site policies, when this site has nothing to dispatch).
  virtual std::optional<TaskUnit> next(const DispatchContext& ctx);

  /// Online ceiling on the analysis-task size, applied on top of whatever
  /// the concrete policy chooses (0 = no cap).  The advisor's lost-runtime
  /// actuation: shrinking the cap bounds the work an eviction can discard
  /// without replacing the policy mid-run.
  void set_size_cap(std::uint32_t cap) { size_cap_ = cap; }
  [[nodiscard]] std::uint32_t size_cap() const { return size_cap_; }

 protected:
  explicit DispatchPolicy(std::uint32_t tasklets_per_task)
      : tasklets_per_task_(tasklets_per_task ? tasklets_per_task : 1) {}

  /// Preferred analysis-task size for this request (clamped to the pool).
  virtual std::uint32_t task_size(const DispatchContext& ctx) const = 0;

  /// task_size() clamped to [1, size_cap] — every next() override sizes
  /// through this so the advisor cap binds in all dispatch paths.
  [[nodiscard]] std::uint32_t capped_size(const DispatchContext& ctx) const {
    std::uint32_t size = std::max<std::uint32_t>(1, task_size(ctx));
    if (size_cap_) size = std::min(size, size_cap_);
    return size;
  }

  std::uint32_t tasklets_per_task_;
  std::uint32_t size_cap_ = 0;
  std::uint64_t tasklets_pending_ = 0;
  std::deque<double> merge_queue_;
};

/// Fixed-size tasks: the behaviour of the production system the paper
/// measured (Figure 3 fixes the optimum around 1 h of work).
class FifoDispatch final : public DispatchPolicy {
 public:
  explicit FifoDispatch(std::uint32_t tasklets_per_task)
      : DispatchPolicy(tasklets_per_task) {}
  const char* name() const override { return "fifo"; }

 protected:
  std::uint32_t task_size(const DispatchContext&) const override {
    return tasklets_per_task_;
  }
};

/// Fixed-size until the drain phase: once the pending pool fits in the slot
/// count, long tasks only extend the eviction-retry tail, so shrink to
/// single tasklets.
class TailShrinkDispatch final : public DispatchPolicy {
 public:
  explicit TailShrinkDispatch(std::uint32_t tasklets_per_task)
      : DispatchPolicy(tasklets_per_task) {}
  const char* name() const override { return "tail-shrink"; }

 protected:
  std::uint32_t task_size(const DispatchContext& ctx) const override {
    if (tasklets_pending_ <= ctx.total_slots) return 1;
    return tasklets_per_task_;
  }
};

/// Site-aware sizing: a dedicated cloud site keeps full-size tasks, an
/// eviction-prone partition gets half-size ones (less work lost per
/// eviction, at the cost of more per-task overhead).  Both shrink to
/// single tasklets at the drain phase, like TailShrink.
class SiteAwareDispatch final : public DispatchPolicy {
 public:
  explicit SiteAwareDispatch(std::uint32_t tasklets_per_task)
      : DispatchPolicy(tasklets_per_task) {}
  const char* name() const override { return "site-aware"; }

 protected:
  std::uint32_t task_size(const DispatchContext& ctx) const override {
    if (tasklets_pending_ <= ctx.total_slots) return 1;
    if (!ctx.site_evictable) return tasklets_per_task_;
    return std::max<std::uint32_t>(1, tasklets_per_task_ / 2);
  }
};

/// Expected-lifetime sizing (paper §4.1: "jobs are created on demand ...
/// sized to the expected lifetime of the worker"): the task gets
/// clamp(safety_factor * E[remaining lifetime] / tasklet_cpu_mean,
///       1, max_tasklets) tasklets, so a worker pulled just before a
/// preemption wave (or during the harsh afternoon of a diurnal climate)
/// receives little work to lose, while a calm or dedicated slot fills up to
/// the cap.  Shrinks to single tasklets at the drain phase like TailShrink.
class LifetimeAwareDispatch final : public DispatchPolicy {
 public:
  LifetimeAwareDispatch(std::uint32_t tasklets_per_task, double safety_factor,
                        std::uint32_t max_tasklets);
  const char* name() const override { return "lifetime"; }
  double safety_factor() const { return safety_factor_; }
  std::uint32_t max_tasklets() const { return max_tasklets_; }

 protected:
  std::uint32_t task_size(const DispatchContext& ctx) const override {
    if (tasklets_pending_ <= ctx.total_slots) return 1;
    // Without a CPU estimate the lifetime is not convertible into a tasklet
    // count; fall back to the static size.
    if (!(ctx.tasklet_cpu_mean > 0.0)) return tasklets_per_task_;
    const double budget =
        safety_factor_ * ctx.expected_remaining_lifetime / ctx.tasklet_cpu_mean;
    if (budget >= static_cast<double>(max_tasklets_)) return max_tasklets_;
    return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(budget));
  }

 private:
  double safety_factor_;
  std::uint32_t max_tasklets_;
};

/// Static per-site partitioning: partition() splits the pending pool across
/// sites proportionally to their slot counts (largest-remainder method, ties
/// to the lower site index — deterministic), and every pull draws from the
/// requesting site's share only.  Sizing is per-site tail-shrink: full tasks
/// while the site's share exceeds its slot count, single tasklets in the
/// drain phase.  This is the multi-site baseline stealing is measured
/// against.
class PartitionedDispatch : public DispatchPolicy {
 public:
  explicit PartitionedDispatch(std::uint32_t tasklets_per_task)
      : DispatchPolicy(tasklets_per_task) {}
  const char* name() const override { return "partitioned"; }

  void partition(const std::vector<std::uint64_t>& site_slots) override;
  void return_tasklets(std::size_t site, std::uint64_t n) override;
  std::optional<TaskUnit> next(const DispatchContext& ctx) override;
  [[nodiscard]] bool has_work_for(std::size_t site) const override;

  [[nodiscard]] std::size_t num_partitions() const {
    return site_pending_.size();
  }
  [[nodiscard]] std::uint64_t site_pending(std::size_t site) const {
    return site < site_pending_.size() ? site_pending_[site] : 0;
  }

 protected:
  std::uint32_t task_size(const DispatchContext& ctx) const override;
  /// Per-site pools; sum always equals tasklets_pending_.  Empty until
  /// partition() is called (the policy then degrades to a single pool).
  std::vector<std::uint64_t> site_pending_;
  std::vector<std::uint64_t> site_slots_;
};

/// Partitioned, plus locality-aware work stealing: when the requesting
/// site's share (and the merge queue) is empty, take one task-sized chunk
/// from the site with the deepest backlog — but only while that backlog is
/// at least `min_backlog` tasklets, so the victim's own drain tail is not
/// churned for chunks whose data penalty outweighs the balance gain.  The
/// returned TaskUnit carries stolen/victim_site so the Engine can charge
/// the transfer penalty and return retries to the victim's pool.  Victim
/// choice is a pure function of the pool state — no RNG — keeping
/// campaigns bitwise deterministic.
class StealingDispatch final : public PartitionedDispatch {
 public:
  /// min_backlog 0 defaults to 2x tasklets_per_task.
  StealingDispatch(std::uint32_t tasklets_per_task, std::uint64_t min_backlog)
      : PartitionedDispatch(tasklets_per_task),
        min_backlog_(min_backlog ? min_backlog : 2ULL * tasklets_per_task_) {}
  const char* name() const override { return "stealing"; }

  std::optional<TaskUnit> next(const DispatchContext& ctx) override;
  /// Own share or merges, or a sibling backlog of at least min_backlog().
  [[nodiscard]] bool has_work_for(std::size_t site) const override;

  [[nodiscard]] std::uint64_t min_backlog() const { return min_backlog_; }
  /// Pulls that looked to a sibling's backlog (successful or not) and
  /// chunks actually taken; the Engine mirrors these into
  /// lobsim.steal.{attempts,tasks}.
  [[nodiscard]] std::uint64_t steal_attempts() const { return attempts_; }
  [[nodiscard]] std::uint64_t steal_tasks() const { return stolen_; }

 private:
  /// The deepest backlog among the sites other than `site`, and its site
  /// (site_pending_.size() when every sibling pool is empty).
  [[nodiscard]] std::pair<std::size_t, std::uint64_t> deepest_sibling(
      std::size_t site) const;

  std::uint64_t min_backlog_;
  std::uint64_t attempts_ = 0;
  std::uint64_t stolen_ = 0;
};

/// `lifetime_safety` and `lifetime_max_tasklets` only matter for
/// DispatchMode::Lifetime; max_tasklets 0 defaults to 4x the static size.
/// `steal_min_backlog` only matters for DispatchMode::Stealing (0 = 2x
/// tasklets_per_task).
std::unique_ptr<DispatchPolicy> make_dispatch_policy(
    DispatchMode mode, std::uint32_t tasklets_per_task,
    double lifetime_safety = 0.25, std::uint32_t lifetime_max_tasklets = 0,
    std::uint64_t steal_min_backlog = 0);

}  // namespace lobster::lobsim
