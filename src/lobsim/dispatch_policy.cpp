#include "lobsim/dispatch_policy.hpp"

#include <stdexcept>

namespace lobster::lobsim {

const char* to_string(DispatchMode m) {
  switch (m) {
    case DispatchMode::Fifo: return "fifo";
    case DispatchMode::TailShrink: return "tail-shrink";
    case DispatchMode::SiteAware: return "site-aware";
    case DispatchMode::Lifetime: return "lifetime";
    case DispatchMode::Partitioned: return "partitioned";
    case DispatchMode::Stealing: return "stealing";
  }
  return "?";
}

LifetimeAwareDispatch::LifetimeAwareDispatch(std::uint32_t tasklets_per_task,
                                             double safety_factor,
                                             std::uint32_t max_tasklets)
    : DispatchPolicy(tasklets_per_task),
      safety_factor_(safety_factor),
      max_tasklets_(max_tasklets ? max_tasklets : 4 * tasklets_per_task_) {
  if (!(safety_factor_ > 0.0))
    throw std::invalid_argument("dispatch: lifetime safety factor must be > 0");
}

std::optional<TaskUnit> DispatchPolicy::next(const DispatchContext& ctx) {
  if (!merge_queue_.empty()) {
    TaskUnit t;
    t.is_merge = true;
    t.merge_input_bytes = merge_queue_.front();
    merge_queue_.pop_front();
    return t;
  }
  if (tasklets_pending_ > 0) {
    TaskUnit t;
    const std::uint64_t size = capped_size(ctx);
    t.n_tasklets = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(size, tasklets_pending_));
    tasklets_pending_ -= t.n_tasklets;
    return t;
  }
  return std::nullopt;
}

// ---- per-site pools (Partitioned / Stealing) --------------------------------

void PartitionedDispatch::partition(
    const std::vector<std::uint64_t>& site_slots) {
  site_slots_ = site_slots;
  site_pending_.assign(site_slots.size(), 0);
  if (site_slots.empty()) return;
  const std::uint64_t total = tasklets_pending_;
  long double weight_sum = 0.0L;
  for (std::uint64_t w : site_slots_) weight_sum += static_cast<long double>(w);
  if (!(weight_sum > 0.0L)) {  // degenerate: park everything on site 0
    site_pending_[0] = total;
    return;
  }
  // Largest-remainder apportionment: floor every exact share, then hand the
  // leftover tasklets to the largest fractional remainders (ties to the
  // lower site index) — deterministic and off by at most one per site.
  std::uint64_t assigned = 0;
  std::vector<std::pair<long double, std::size_t>> remainders;
  remainders.reserve(site_slots_.size());
  for (std::size_t s = 0; s < site_slots_.size(); ++s) {
    const long double exact = static_cast<long double>(total) *
                              static_cast<long double>(site_slots_[s]) /
                              weight_sum;
    const std::uint64_t base = static_cast<std::uint64_t>(exact);
    site_pending_[s] = base;
    assigned += base;
    remainders.emplace_back(exact - static_cast<long double>(base), s);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::uint64_t i = 0; i < total - assigned; ++i)
    ++site_pending_[remainders[i % remainders.size()].second];
}

void PartitionedDispatch::return_tasklets(std::size_t site, std::uint64_t n) {
  add_tasklets(n);
  if (site_pending_.empty()) return;
  if (site >= site_pending_.size()) site = 0;
  site_pending_[site] += n;
}

std::uint32_t PartitionedDispatch::task_size(const DispatchContext& ctx) const {
  // Per-site tail shrink: once this site's share fits in its own slots,
  // long tasks only deepen the local eviction-retry tail.
  if (ctx.site < site_pending_.size() &&
      site_pending_[ctx.site] <= site_slots_[ctx.site])
    return 1;
  return tasklets_per_task_;
}

std::optional<TaskUnit> PartitionedDispatch::next(const DispatchContext& ctx) {
  // Until partition() is called there is nothing per-site to consult; act
  // as a single pool (unit tests drive the policy without a SiteManager).
  if (site_pending_.empty()) return DispatchPolicy::next(ctx);
  if (!merge_queue_.empty()) {
    TaskUnit t;
    t.is_merge = true;
    t.merge_input_bytes = merge_queue_.front();
    merge_queue_.pop_front();
    return t;
  }
  if (ctx.site >= site_pending_.size()) return std::nullopt;
  std::uint64_t& pool = site_pending_[ctx.site];
  if (pool == 0) return std::nullopt;
  TaskUnit t;
  const std::uint64_t size = capped_size(ctx);
  t.n_tasklets =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(size, pool));
  pool -= t.n_tasklets;
  tasklets_pending_ -= t.n_tasklets;
  return t;
}

bool PartitionedDispatch::has_work_for(std::size_t site) const {
  if (site_pending_.empty()) return !idle();
  return !merge_queue_.empty() ||
         (site < site_pending_.size() && site_pending_[site] > 0);
}

std::pair<std::size_t, std::uint64_t> StealingDispatch::deepest_sibling(
    std::size_t site) const {
  // Pure function of the pool state — no RNG — so campaigns stay bitwise
  // deterministic.
  std::size_t victim = site_pending_.size();
  std::uint64_t deepest = 0;
  for (std::size_t s = 0; s < site_pending_.size(); ++s) {
    if (s == site) continue;
    if (site_pending_[s] > deepest) {
      deepest = site_pending_[s];
      victim = s;
    }
  }
  return {victim, deepest};
}

bool StealingDispatch::has_work_for(std::size_t site) const {
  if (PartitionedDispatch::has_work_for(site)) return true;
  if (site_pending_.empty() || site >= site_pending_.size()) return false;
  const auto [victim, deepest] = deepest_sibling(site);
  return victim < site_pending_.size() && deepest >= min_backlog_;
}

std::optional<TaskUnit> StealingDispatch::next(const DispatchContext& ctx) {
  if (auto task = PartitionedDispatch::next(ctx)) return task;
  // Own share and merge queue empty: look to the siblings for the deepest
  // backlog.
  if (site_pending_.empty() || ctx.site >= site_pending_.size())
    return std::nullopt;
  ++attempts_;
  const auto [victim, deepest] = deepest_sibling(ctx.site);
  if (victim == site_pending_.size() || deepest < min_backlog_)
    return std::nullopt;
  TaskUnit t;
  // Mirror the per-site drain sizing: full chunks while the victim's
  // backlog exceeds its slot count, single tasklets in the drain phase —
  // stealing long chunks at the tail would re-create the straggler problem
  // tail-shrink exists to prevent.
  std::uint64_t chunk =
      deepest <= site_slots_[victim] ? 1 : tasklets_per_task_;
  if (size_cap()) chunk = std::min<std::uint64_t>(chunk, size_cap());
  t.n_tasklets = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(chunk, deepest));
  site_pending_[victim] -= t.n_tasklets;
  tasklets_pending_ -= t.n_tasklets;
  t.stolen = true;
  t.victim_site = victim;
  ++stolen_;
  return t;
}

std::unique_ptr<DispatchPolicy> make_dispatch_policy(
    DispatchMode mode, std::uint32_t tasklets_per_task, double lifetime_safety,
    std::uint32_t lifetime_max_tasklets, std::uint64_t steal_min_backlog) {
  switch (mode) {
    case DispatchMode::Fifo:
      return std::make_unique<FifoDispatch>(tasklets_per_task);
    case DispatchMode::TailShrink:
      return std::make_unique<TailShrinkDispatch>(tasklets_per_task);
    case DispatchMode::SiteAware:
      return std::make_unique<SiteAwareDispatch>(tasklets_per_task);
    case DispatchMode::Lifetime:
      return std::make_unique<LifetimeAwareDispatch>(
          tasklets_per_task, lifetime_safety, lifetime_max_tasklets);
    case DispatchMode::Partitioned:
      return std::make_unique<PartitionedDispatch>(tasklets_per_task);
    case DispatchMode::Stealing:
      return std::make_unique<StealingDispatch>(tasklets_per_task,
                                                steal_min_backlog);
  }
  throw std::invalid_argument("dispatch: unknown mode");
}

}  // namespace lobster::lobsim
