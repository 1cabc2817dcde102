// lobster_perfbench — the measuring half of the repository benchmark.
//
// run.py builds this binary and calls it once per benchmark invocation:
//
//   lobster_perfbench --workload processing|simulation|global_pool
//                     --seed N --seconds S --mode run|trace
//                     [--cores N] [--tasklets N] [--users N]
//                     [--trace-file PATH]
//
// It builds the workload's inputs from the seed, drives the simulator only
// through its public entry points (lobsim::Engine construct -> run(),
// lobsim::simulate_global_pool_live, core::replay_trace and the layer
// probes) and prints ONE JSON object of raw samples on stdout.  The metric
// math (medians, percentiles, ratios, shares) lives in metrics.py, which
// has its own tests.
//
//   --mode run    runs untraced repetitions, each on a fresh input derived
//                 from the seed, for about S host seconds (at least
//                 kSimInputs of them), then re-runs input 0.  Every
//                 repetition is checked for correctness; run.py compares
//                 the repeat's simulated digest with the first one's.
//   --mode trace  alternates untraced and traced repetitions of input 0 for
//                 S seconds (at least one of each).  A traced Engine
//                 repetition turns on Engine::enable_tracing, runs a layer
//                 sampler on the kernel, probes the availability and
//                 dispatch layers and replays its own trace; its digest
//                 must equal the untraced one, so the sampler provably
//                 leaves the model alone.
//
// Every repetition is preceded by the host probe (see probe_host) and
// reports its own peak resident set, with the probe excluded.
//
// --cores / --tasklets / --users override the workload's size (tests run
// tiny instances); the defaults below are the benchmark's.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/trace_replay.hpp"
#include "lobsim/dispatch_policy.hpp"
#include "lobsim/engine.hpp"
#include "lobsim/global_pool.hpp"
#include "lobsim/scenarios.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"

using namespace lobster;

namespace {

// ---------------------------------------------------------------------------
// Workload sizes.  Both Engine workloads scale the paper scenario down with
// every shared bottleneck (uplink, squid, chirp) scaled by the same factor,
// so the same physics binds at a size a single host core simulates in
// seconds; the pool runs at full Global-Pool scale.
// ---------------------------------------------------------------------------
constexpr std::size_t kProcessingCores = 400;     // paper: 10k (Fig. 10)
constexpr std::size_t kSimulationCores = 125;     // paper: 20k (Fig. 11)
constexpr double kPoolCores = 110000.0;           // paper §7: ~110k
constexpr int kPoolUsers = 400;
constexpr double kPoolTaskletSeconds = 3600.0;
/// Every repetition runs a fresh input (scenario seed) derived from --seed;
/// the simulated outcome of one seed swings by several percent, so the
/// reported one is the mean over the first kSimInputs inputs, which every
/// run covers whatever the host speed.
constexpr std::size_t kSimInputs = 16;
/// Pool users' volumes are Pareto(1.3) in units of kPoolUserScaleHours
/// core-hours, bounded at kPoolUserCap units: unbounded, one draw of the
/// infinite-variance tail would decide each run's length.
constexpr double kPoolUserScaleHours = 2000.0;
constexpr double kPoolUserCap = 5.0;
/// The fig15 gate: live aggregate goodput within 5% of the fluid model.
constexpr double kPoolMaxDeviation = 0.05;
/// Layer sampler period, simulated seconds.
constexpr double kSamplePeriod = 60.0;
/// Minimum host time each layer probe accumulates.
constexpr double kProbeSeconds = 0.05;

using Clock = std::chrono::steady_clock;
const Clock::time_point kProgramStart = Clock::now();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps probe results observable so the timed calls are not elided.
volatile double g_probe_sink = 0.0;

// ---------------------------------------------------------------------------
// Host probe.  A shared host runs the same code at speeds that drift by tens
// of percent within minutes (other tenants load the shared cache, memory
// and turbo budget), so before every repetition two fixed kernels of this
// file are timed: a cache-missing hold model over a binary-heap event queue
// (the profile of the DES kernel and the pool) and a dependent
// floating-point sum over an array that stays in cache (the profile of the
// Engine's availability scans).  metrics.py divides the run's host times
// by the slowdown, against their nominal times, of the kernels that match
// the workload's hot path.  No simulator code runs here, so no change to
// src/ moves the probe.  Its memory is mapped for it alone and unmapped
// afterwards.
// ---------------------------------------------------------------------------
struct HostProbe {
  double memory_s = 0.0;
  double compute_s = 0.0;
};

constexpr std::size_t kProbeQueue = std::size_t{1} << 17;  ///< pending holds
constexpr std::size_t kProbeHolds = 150000;                ///< timed pop+push
constexpr std::size_t kProbeSum = 50000;  ///< doubles per summing pass
constexpr int kProbeSumPasses = 100;

HostProbe probe_host() {
  struct Hold {
    double t;
    std::uint32_t id;
  };
  struct Record {
    double v[8];
  };
  const std::size_t bytes = kProbeQueue * (sizeof(Hold) + sizeof(Record)) +
                            kProbeSum * sizeof(double);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("host probe: mmap failed");
  auto* queue = static_cast<Hold*>(mem);
  auto* records = reinterpret_cast<Record*>(queue + kProbeQueue);
  auto* values = reinterpret_cast<double*>(records + kProbeQueue);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto later = [](const Hold& a, const Hold& b) { return a.t > b.t; };
  // Untimed fill: every page is faulted in before the clock starts.
  for (std::size_t i = 0; i < kProbeQueue; ++i) {
    queue[i] = {static_cast<double>(next() % 3600),
                static_cast<std::uint32_t>(i)};
    records[i] = {};
  }
  std::make_heap(queue, queue + kProbeQueue, later);
  for (std::size_t i = 0; i < kProbeSum; ++i)
    values[i] = 1.0 + 1e-6 * static_cast<double>(i % 977);

  HostProbe p;
  auto t0 = Clock::now();
  for (std::size_t k = 0; k < kProbeHolds; ++k) {
    std::pop_heap(queue, queue + kProbeQueue, later);
    Hold& h = queue[kProbeQueue - 1];
    records[h.id].v[k & 7] += h.t;
    h.t += 3000.0 + static_cast<double>(next() % 1200);
    std::push_heap(queue, queue + kProbeQueue, later);
  }
  p.memory_s = since(t0);
  t0 = Clock::now();
  double sum = 0.0;
  for (int pass = 0; pass < kProbeSumPasses; ++pass)
    for (std::size_t i = 0; i < kProbeSum; ++i) sum += values[i];
  p.compute_s = since(t0);
  g_probe_sink = sum + records[queue[0].id].v[0];
  munmap(mem, bytes);
  return p;
}

// ---------------------------------------------------------------------------
// Peak resident set of one repetition.  Before each repetition the kernel's
// high-water mark is reset to the current resident set (clear_refs 5), so
// the probe's pages and earlier repetitions do not count; where the reset is
// refused the reading is the peak of the process so far.
// ---------------------------------------------------------------------------
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) * 1024.0;  // kB
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Minimal JSON writer (numbers as %.17g, non-finite as null).
// ---------------------------------------------------------------------------
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k) {
    comma();
    string(k);
    out_ += ':';
    after_key_ = true;
  }
  void value(double v) {
    prefix();
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void value(std::uint64_t v) {
    prefix();
    out_ += std::to_string(v);
  }
  void value(bool v) {
    prefix();
    out_ += v ? "true" : "false";
  }
  void value(std::string_view s) {
    prefix();
    string(s);
  }

  template <typename T>
  void field(std::string_view k, const T& v) {
    key(k);
    value(v);
  }
  void field(std::string_view k, const char* v) {
    key(k);
    value(std::string_view(v));
  }
  void array(std::string_view k, const std::vector<double>& values) {
    key(k);
    begin_array();
    for (double v : values) value(v);
    end_array();
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void open(char c) {
    prefix();
    out_ += c;
    first_.push_back(true);
  }
  void close(char c) {
    out_ += c;
    first_.pop_back();
  }
  void comma() {
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void prefix() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    comma();
  }
  void string(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ---------------------------------------------------------------------------
// Benchmark-side spans: one per public call the benchmark makes, kept in
// memory and emitted with the result.
// ---------------------------------------------------------------------------
class SpanLog {
 public:
  struct Record {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  int open(std::string name, int parent) {
    records_.push_back({std::move(name), parent, since(kProgramStart), 0.0});
    return static_cast<int>(records_.size()) - 1;
  }
  void close(int id) { records_[static_cast<std::size_t>(id)].end = since(kProgramStart); }

  void write(JsonWriter& j) const {
    j.begin_array();
    for (const auto& r : records_) {
      j.begin_object();
      j.field("name", std::string_view(r.name));
      j.field("parent", static_cast<double>(r.parent));
      j.field("start_s", r.start);
      j.field("end_s", r.end);
      j.end_object();
    }
    j.end_array();
  }

 private:
  std::vector<Record> records_;
};

/// RAII span around one call; the id doubles as the parent of nested spans.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->open(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Simulated digest: FNV-1a over the bit patterns of a run's outcome.  Host
// quantities and kernel event counts (the traced run's sampler adds events)
// stay out of it.
// ---------------------------------------------------------------------------
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------
struct EngineInputs {
  lobsim::ClusterParams cluster;
  lobsim::WorkloadParams workload;
  double outage_start = 0.0;
  double outage_duration = 0.0;
  std::uint64_t seed = 0;
};

std::uint64_t scaled_count(std::uint64_t paper_count, double f) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(paper_count) * f)));
}

/// Fig. 10 data processing, scaled: cores, tasklets, squid connections and
/// campus uplink shrink together; the mid-run WAN outage stays.
EngineInputs processing_inputs(std::size_t cores, std::uint64_t tasklets,
                               std::uint64_t seed) {
  const auto s = lobsim::data_processing_scenario();
  EngineInputs in{s.cluster, s.workload, s.outage_start, s.outage_duration, seed};
  const double f = static_cast<double>(cores) /
                   static_cast<double>(s.cluster.target_cores);
  in.cluster.target_cores = cores;
  in.cluster.federation.campus_uplink_rate *= f;
  in.cluster.squid.max_connections = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(
              static_cast<double>(s.cluster.squid.max_connections) * f));
  in.workload.num_tasklets =
      tasklets ? tasklets : scaled_count(s.workload.num_tasklets, f);
  return in;
}

/// Fig. 11 Monte Carlo simulation, scaled the same way (squid, chirp and
/// uplink rates with the core count; the connect timeout stays).
EngineInputs simulation_inputs(std::size_t cores, std::uint64_t tasklets,
                               std::uint64_t seed) {
  const auto s = lobsim::simulation_run_scenario();
  EngineInputs in{s.cluster, s.workload, 0.0, 0.0, seed};
  const double f = static_cast<double>(cores) /
                   static_cast<double>(s.cluster.target_cores);
  in.cluster.target_cores = cores;
  in.cluster.federation.campus_uplink_rate *= f;
  in.cluster.squid.service_rate *= f;
  in.cluster.squid.upstream_rate *= f;
  in.cluster.squid.max_connections = std::max<std::int64_t>(
      32, static_cast<std::int64_t>(
              static_cast<double>(s.cluster.squid.max_connections) * f));
  in.cluster.chirp.nic_rate *= f;
  in.workload.num_tasklets =
      tasklets ? tasklets : scaled_count(s.workload.num_tasklets, f);
  return in;
}

/// The fig13/fig15 population: `users` backlogged analyses with
/// pareto-tailed volumes plus one 200k-core-hour analyst, on `cores`
/// dedicated cores, together with the fluid model's goodput it is checked
/// against.
struct PoolInputs {
  double cores = 0.0;
  std::vector<lobsim::PoolUser> users;
  double fluid_goodput = 0.0;
};

PoolInputs pool_inputs(double cores, int n_users, std::uint64_t seed) {
  PoolInputs in;
  in.cores = cores;
  const double scale = cores / 110000.0;
  util::Rng rng(seed);
  for (int u = 0; u < n_users; ++u) {
    lobsim::PoolUser user;
    user.name = "analyst-" + std::to_string(u);
    const double unit = util::hours(kPoolUserScaleHours) * scale;
    user.core_seconds = std::min(rng.pareto(1.3, unit), kPoolUserCap * unit);
    user.max_parallelism = rng.uniform(500.0, 4000.0) * scale;
    in.users.push_back(user);
  }
  lobsim::PoolUser ours;
  ours.name = "our-analyst";
  ours.core_seconds = util::hours(200000) * scale;
  ours.max_parallelism = 10000.0 * scale;
  in.users.push_back(ours);

  double volume = 0.0;
  for (const auto& u : in.users) volume += u.core_seconds;
  double makespan = 0.0;
  for (const auto& o : lobsim::simulate_global_pool(cores, in.users))
    makespan = std::max(makespan, o.finish_time);
  in.fluid_goodput = makespan > 0.0 ? volume / makespan : 0.0;
  return in;
}

// ---------------------------------------------------------------------------
// One repetition's outcome.
// ---------------------------------------------------------------------------
struct Rep {
  std::size_t input = 0;  ///< which of the run's derived inputs
  bool traced = false;
  bool ok = false;
  std::string error;
  std::string digest;
  double setup_s = 0.0;
  double run_s = 0.0;
  HostProbe probe;  ///< taken just before the repetition
  double peak_rss_bytes = 0.0;
  double tasklets = 0.0;  ///< tasklets completed (the fixed work)
  std::uint64_t events = 0;
  double makespan_s = 0.0;
  /// Engine: Monitor CPU wall / total task wall.  Pool: delivered
  /// core-seconds / (cores x makespan).
  double cpu_efficiency = 0.0;
};

/// What the traced repetitions add (first traced repetition for the
/// deterministic parts, every traced repetition for the host timings).
struct Layers {
  bool have = false;
  std::vector<double> sample_t, pending, live, uplink_flows, uplink_rate,
      squid_flows, chirp_in_use;
  double uplink_nominal = 0.0;
  std::vector<std::pair<std::string, double>> counters;
  std::map<std::string, double> engine;
  std::map<std::string, double> breakdown;
  std::map<std::string, std::vector<double>> spans;
  double trace_events = 0.0;
  double pool_tasklets = 0.0;
  double pool_fluid_deviation = 0.0;
  std::vector<double> expected_lifetime_ns, dispatch_next_ns, replay_s;
};

// ---------------------------------------------------------------------------
// Engine workloads
// ---------------------------------------------------------------------------

/// Periodic callback on the run's own kernel, scheduled through the public
/// des::Simulation::schedule.  It only reads state, and stops rescheduling
/// once it is the only pending event so the run still drains.
class LayerSampler {
 public:
  LayerSampler(lobsim::Engine& engine, std::size_t num_squids, Layers& out)
      : engine_(engine), num_squids_(num_squids), out_(out) {}
  LayerSampler(const LayerSampler&) = delete;
  LayerSampler& operator=(const LayerSampler&) = delete;

  void start() { engine_.sim().schedule(0.0, [this] { tick(); }); }

 private:
  void tick() {
    des::Simulation& sim = engine_.sim();
    out_.sample_t.push_back(sim.now());
    out_.pending.push_back(static_cast<double>(sim.pending_events()));
    out_.live.push_back(static_cast<double>(sim.live_processes()));
    des::BandwidthLink& uplink = engine_.federation().uplink();
    out_.uplink_flows.push_back(static_cast<double>(uplink.active_flows()));
    out_.uplink_rate.push_back(uplink.allocated_rate());
    std::size_t squid_flows = 0;
    for (std::size_t i = 0; i < num_squids_; ++i)
      squid_flows += engine_.squid(i).service_link().active_flows();
    out_.squid_flows.push_back(static_cast<double>(squid_flows));
    out_.chirp_in_use.push_back(
        static_cast<double>(engine_.chirp().connections().in_use()));
    if (sim.pending_events() > 0)
      sim.schedule(kSamplePeriod, [this] { tick(); });
  }

  lobsim::Engine& engine_;
  std::size_t num_squids_;
  Layers& out_;
};

/// Correctness + digest + simulated outcome of a finished Engine run.
void finish_engine_rep(Rep& r, lobsim::Engine& engine,
                       const lobsim::EngineMetrics& m, const EngineInputs& in) {
  std::string problem;
  if (!m.completed)
    problem = "run did not complete (time cap or stall)";
  else if (m.tasklets_processed != in.workload.num_tasklets)
    problem = "tasklets processed " + std::to_string(m.tasklets_processed) +
              " != " + std::to_string(in.workload.num_tasklets);
  else if (!engine.merge_planner().drained() ||
           engine.dispatch_policy().merge_backlog() != 0 ||
           m.merge_tasks_completed == 0)
    problem = "merging not finished";
  else if (!(m.makespan > 0.0))
    problem = "non-positive makespan";
  r.ok = problem.empty();
  r.error = problem;

  const core::RuntimeBreakdown b = m.monitor.breakdown();
  Digest d;
  d.add(m.makespan);
  d.add(static_cast<std::uint64_t>(m.completed));
  d.add(m.tasks_completed);
  d.add(m.tasks_failed);
  d.add(m.tasks_evicted);
  d.add(m.merge_tasks_completed);
  d.add(m.tasklets_processed);
  d.add(m.tasklets_retried);
  d.add(m.last_analysis_finish);
  d.add(m.last_merge_finish);
  d.add(m.bytes_streamed);
  d.add(m.bytes_staged);
  d.add(m.bytes_staged_out);
  d.add(static_cast<std::uint64_t>(m.peak_running));
  d.add(static_cast<std::uint64_t>(m.failure_events.size()));
  for (double v : {b.cpu, b.io, b.failed, b.hard_failed, b.stage_in,
                   b.stage_out, b.other})
    d.add(v);
  r.digest = d.hex();

  r.tasklets = static_cast<double>(m.tasklets_processed);
  r.events = engine.sim().events_executed();
  r.makespan_s = m.makespan;
  r.cpu_efficiency = b.total() > 0.0 ? b.cpu / b.total() : 0.0;
}

/// Mean host nanoseconds of SiteManager::expected_remaining_lifetime on the
/// run's own SiteManager, queried across the run's simulated span.
double probe_expected_lifetime_ns(lobsim::SiteManager& sites, double horizon) {
  double sink = 0.0;
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 64; ++i, ++calls) {
      const double now = horizon * static_cast<double>(calls % 1024) / 1024.0;
      sink += sites.expected_remaining_lifetime(0, now);
    }
    elapsed = since(t0);
  } while (elapsed < kProbeSeconds);
  g_probe_sink = sink;
  return 1e9 * elapsed / static_cast<double>(calls);
}

/// Mean host nanoseconds of DispatchPolicy::next() while draining a fresh
/// make_dispatch_policy pool of the workload's size.  Throws if a drain
/// hands out a different number of tasklets than it was given.
double probe_dispatch_next_ns(const EngineInputs& in,
                              lobsim::SiteManager& sites) {
  const lobsim::WorkloadParams& w = in.workload;
  lobsim::DispatchContext ctx;
  ctx.total_slots = sites.total_slots();
  ctx.site = 0;
  ctx.site_evictable = sites.site_evictable(0);
  ctx.expected_remaining_lifetime = sites.expected_remaining_lifetime(0, 0.0);
  ctx.tasklet_cpu_mean = w.tasklet_cpu_mean;

  std::uint64_t calls = 0;
  double timed = 0.0;
  do {
    auto policy = lobsim::make_dispatch_policy(
        w.dispatch, w.tasklets_per_task, w.lifetime_safety, w.lifetime_max_tasklets,
        w.steal_min_backlog);
    policy->add_tasklets(w.num_tasklets);
    policy->partition({sites.total_slots()});
    std::uint64_t handed_out = 0;
    const auto t0 = Clock::now();
    while (auto task = policy->next(ctx)) {
      handed_out += task->n_tasklets;
      ++calls;
    }
    ++calls;  // the final, empty pull
    timed += since(t0);
    if (handed_out != w.num_tasklets)
      throw std::runtime_error("dispatch probe: drained " +
                               std::to_string(handed_out) + " tasklets of " +
                               std::to_string(w.num_tasklets));
  } while (timed < kProbeSeconds);
  return 1e9 * timed / static_cast<double>(calls);
}

/// Durations (simulated seconds) of every "segment" span, by segment name.
std::map<std::string, std::vector<double>> segment_durations(
    const std::vector<util::TraceEvent>& events) {
  std::unordered_map<std::uint64_t, std::vector<const util::TraceEvent*>> open;
  std::map<std::string, std::vector<double>> out;
  for (const auto& e : events) {
    if (e.phase == 'B') {
      open[e.track].push_back(&e);
    } else if (e.phase == 'E') {
      auto& stack = open[e.track];
      if (stack.empty()) continue;
      const util::TraceEvent* begin = stack.back();
      stack.pop_back();
      if (begin->cat == "segment") out[begin->name].push_back(e.t - begin->t);
    }
  }
  return out;
}

Rep engine_rep(const EngineInputs& in) {
  Rep r;
  try {
    const auto t0 = Clock::now();
    lobsim::Engine engine(in.cluster, in.workload, in.seed);
    if (in.outage_duration > 0.0)
      engine.schedule_outage(in.outage_start, in.outage_duration);
    r.setup_s = since(t0);
    const auto t1 = Clock::now();
    const lobsim::EngineMetrics& m = engine.run();
    r.run_s = since(t1);
    finish_engine_rep(r, engine, m, in);
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

Rep engine_traced_rep(const EngineInputs& in, const std::string& trace_path,
                      SpanLog& spans, Layers& layers) {
  Rep r;
  r.traced = true;
  const ScopedSpan rep_span(&spans, "traced_rep", -1);
  const bool first = !layers.have;
  Layers scratch;
  Layers& out = first ? layers : scratch;
  try {
    std::optional<ScopedSpan> construct(std::in_place, &spans, "engine.construct",
                                        rep_span.id());
    const auto t0 = Clock::now();
    lobsim::Engine engine(in.cluster, in.workload, in.seed);
    if (in.outage_duration > 0.0)
      engine.schedule_outage(in.outage_start, in.outage_duration);
    r.setup_s = since(t0);
    engine.enable_tracing(trace_path, util::TraceFormat::Jsonl);
    LayerSampler sampler(engine, in.cluster.num_squids, out);
    sampler.start();
    construct.reset();

    const lobsim::EngineMetrics* mp = nullptr;
    {
      const ScopedSpan run_span(&spans, "engine.run", rep_span.id());
      const auto t1 = Clock::now();
      mp = &engine.run();
      r.run_s = since(t1);
    }
    const lobsim::EngineMetrics& m = *mp;
    finish_engine_rep(r, engine, m, in);

    if (first) {
      out.have = true;
      out.uplink_nominal = in.cluster.federation.campus_uplink_rate;
      for (const auto& s : engine.sim().counters().snapshot())
        out.counters.emplace_back(s.name, s.value);
      const core::RuntimeBreakdown b = m.monitor.breakdown();
      out.breakdown = {{"cpu", b.cpu},           {"io", b.io},
                       {"stage_in", b.stage_in}, {"stage_out", b.stage_out},
                       {"failed", b.failed},     {"other", b.other}};
      // What the counter plane does not carry.
      out.engine = {{"last_analysis_finish_s", m.last_analysis_finish},
                    {"last_merge_finish_s", m.last_merge_finish},
                    {"chirp_mean_slowdown", engine.chirp().mean_slowdown()}};
    }

    {
      const ScopedSpan probe(&spans, "probe.availability", rep_span.id());
      layers.expected_lifetime_ns.push_back(
          probe_expected_lifetime_ns(engine.site_manager(), m.makespan));
    }
    {
      const ScopedSpan probe(&spans, "probe.dispatch", rep_span.id());
      layers.dispatch_next_ns.push_back(
          probe_dispatch_next_ns(in, engine.site_manager()));
    }
    {
      const ScopedSpan replay_span(&spans, "core.replay_trace", rep_span.id());
      const auto t0r = Clock::now();
      const std::vector<util::TraceEvent> events =
          util::read_trace_jsonl(trace_path);
      const core::TraceReplay replay = core::replay_trace(events);
      layers.replay_s.push_back(since(t0r));
      if (replay.open_spans != 0 ||
          replay.records.size() != m.monitor.tasks_seen()) {
        r.ok = false;
        r.error = "trace replay: " + std::to_string(replay.records.size()) +
                  " task records (" + std::to_string(replay.open_spans) +
                  " open) for " + std::to_string(m.monitor.tasks_seen()) +
                  " finished tasks";
      }
      if (first) {
        out.trace_events = static_cast<double>(events.size());
        out.spans = segment_durations(events);
      }
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Global pool
// ---------------------------------------------------------------------------
Rep pool_rep(double cores, int users, std::uint64_t seed, SpanLog* spans,
             Layers* layers) {
  Rep r;
  r.traced = spans != nullptr;
  try {
    const ScopedSpan rep_span(spans, "traced_rep", -1);
    PoolInputs in;
    {
      const ScopedSpan s(spans, "pool.build_inputs", rep_span.id());
      const auto t0 = Clock::now();
      in = pool_inputs(cores, users, seed);
      r.setup_s = since(t0);
    }
    lobsim::LivePoolResult live;
    {
      const ScopedSpan s(spans, "pool.simulate_live", rep_span.id());
      const auto t1 = Clock::now();
      live = lobsim::simulate_global_pool_live(in.cores, in.users,
                                               kPoolTaskletSeconds);
      r.run_s = since(t1);
    }
    const double deviation =
        in.fluid_goodput > 0.0
            ? std::abs(live.aggregate_goodput - in.fluid_goodput) / in.fluid_goodput
            : std::numeric_limits<double>::infinity();
    std::string problem;
    if (live.outcomes.size() != in.users.size())
      problem = "missing user outcomes";
    for (const auto& o : live.outcomes)
      if (!(std::isfinite(o.finish_time) && o.finish_time > o.submit_time))
        problem = "user " + o.name + " never finished";
    if (live.tasklets_dispatched == 0 || !(live.makespan > 0.0))
      problem = "no work dispatched";
    if (!(deviation <= kPoolMaxDeviation))
      problem = "live-vs-fluid goodput deviation " + std::to_string(deviation) +
                " above " + std::to_string(kPoolMaxDeviation);
    r.ok = problem.empty();
    r.error = problem;

    Digest d;
    d.add(live.makespan);
    d.add(live.aggregate_goodput);
    d.add(live.tasklets_dispatched);
    d.add(live.events_executed);
    for (const auto& o : live.outcomes) d.add(o.finish_time);
    r.digest = d.hex();

    r.tasklets = static_cast<double>(live.tasklets_dispatched);
    r.events = live.events_executed;
    r.makespan_s = live.makespan;
    r.cpu_efficiency = live.aggregate_goodput / in.cores;
    if (layers && !layers->have) {
      layers->have = true;
      layers->pool_tasklets = static_cast<double>(live.tasklets_dispatched);
      layers->pool_fluid_deviation = deviation;
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void write_map(JsonWriter& j, std::string_view k,
               const std::map<std::string, double>& m) {
  j.key(k);
  j.begin_object();
  for (const auto& [name, value] : m) j.field(name, value);
  j.end_object();
}

void write_layers(JsonWriter& j, const Layers& l) {
  j.key("layers");
  j.begin_object();
  j.key("sampler");
  j.begin_object();
  j.array("t", l.sample_t);
  j.array("pending_events", l.pending);
  j.array("live_processes", l.live);
  j.array("uplink_flows", l.uplink_flows);
  j.array("uplink_rate", l.uplink_rate);
  j.array("squid_flows", l.squid_flows);
  j.array("chirp_in_use", l.chirp_in_use);
  j.field("uplink_nominal", l.uplink_nominal);
  j.end_object();
  j.key("counters");
  j.begin_object();
  for (const auto& [name, value] : l.counters) j.field(name, value);
  j.end_object();
  write_map(j, "engine", l.engine);
  write_map(j, "breakdown", l.breakdown);
  j.key("segments");
  j.begin_object();
  for (const auto& [name, values] : l.spans) j.array(name, values);
  j.end_object();
  j.field("trace_events", l.trace_events);
  j.field("pool_tasklets", l.pool_tasklets);
  j.field("pool_fluid_deviation", l.pool_fluid_deviation);
  j.array("expected_lifetime_ns", l.expected_lifetime_ns);
  j.array("dispatch_next_ns", l.dispatch_next_ns);
  j.array("replay_s", l.replay_s);
  j.end_object();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t cores = 0;
  std::uint64_t tasklets = 0;
  int users = 0;
  std::string trace_file = "lobster_perfbench_trace.jsonl";
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: lobster_perfbench --workload processing|simulation|"
               "global_pool --seed N --seconds S --mode run|trace\n"
               "       [--cores N] [--tasklets N] [--users N] "
               "[--trace-file PATH]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (arg == "--mode") {
      if (v != "run" && v != "trace") usage();
      o.trace = v == "trace";
      have_mode = true;
    } else if (arg == "--cores") {
      o.cores = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--tasklets") {
      o.tasklets = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--users") {
      o.users = std::atoi(v.c_str());
    } else if (arg == "--trace-file") {
      o.trace_file = v;
    } else {
      usage();
    }
  }
  if (!have_mode ||
      (o.workload != "processing" && o.workload != "simulation" &&
       o.workload != "global_pool"))
    usage();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const bool pool = opt.workload == "global_pool";

  // Repetition i runs input i, whose scenario seed is derived from --seed.
  const util::Rng seeder(opt.seed);
  auto input_seed = [&](std::size_t i) {
    return seeder.stream("perfbench.input", i)();
  };
  auto engine_inputs = [&](std::size_t i) {
    const std::uint64_t s = input_seed(i);
    return opt.workload == "processing"
               ? processing_inputs(opt.cores ? opt.cores : kProcessingCores,
                                   opt.tasklets, s)
               : simulation_inputs(opt.cores ? opt.cores : kSimulationCores,
                                   opt.tasklets, s);
  };
  const EngineInputs size_in = pool ? EngineInputs{} : engine_inputs(0);
  const double pool_cores =
      opt.cores ? static_cast<double>(opt.cores) : kPoolCores;
  const int pool_users = opt.users > 0 ? opt.users : kPoolUsers;

  SpanLog spans;
  Layers layers;
  std::vector<Rep> reps;
  auto measured = [&](std::size_t i, auto&& run_rep) {
    const HostProbe probe = probe_host();
    reset_peak_rss();
    Rep r = run_rep();
    r.peak_rss_bytes = peak_rss_bytes();
    r.input = i;
    r.probe = probe;
    return r;
  };
  auto untraced = [&](std::size_t i) {
    return measured(i, [&] {
      return pool ? pool_rep(pool_cores, pool_users, input_seed(i), nullptr,
                             nullptr)
                  : engine_rep(engine_inputs(i));
    });
  };
  auto traced = [&](std::size_t i) {
    return measured(i, [&] {
      return pool ? pool_rep(pool_cores, pool_users, input_seed(i), &spans,
                             &layers)
                  : engine_traced_rep(engine_inputs(i), opt.trace_file, spans,
                                      layers);
    });
  };
  const auto start = Clock::now();
  if (opt.trace) {
    // Per-layer numbers come from input 0 only.
    do {
      reps.push_back(untraced(0));
      reps.push_back(traced(0));
    } while (since(start) < opt.seconds);
  } else {
    // A fresh input per repetition: the kSimInputs the simulated outcome
    // is averaged over, then more while another one fits in --seconds;
    // then input 0 once more, whose digest must repeat.
    std::size_t i = 0;
    while (i < kSimInputs) reps.push_back(untraced(i++));
    while (since(start) * static_cast<double>(i + 1) /
               static_cast<double>(i) <=
           opt.seconds)
      reps.push_back(untraced(i++));
    reps.push_back(untraced(0));
  }

  JsonWriter j;
  j.begin_object();
  j.field("workload", std::string_view(opt.workload));
  j.field("seed", opt.seed);
  j.field("mode", opt.trace ? "trace" : "run");
  j.key("size");
  j.begin_object();
  if (pool) {
    j.field("cores", pool_cores);
    j.field("users", static_cast<double>(pool_users));
  } else {
    j.field("cores", static_cast<double>(size_in.cluster.target_cores));
    j.field("tasklets", static_cast<double>(size_in.workload.num_tasklets));
  }
  j.end_object();
  j.field("sim_inputs", static_cast<std::uint64_t>(kSimInputs));
  j.key("reps");
  j.begin_array();
  for (const Rep& r : reps) {
    j.begin_object();
    j.field("input", static_cast<std::uint64_t>(r.input));
    j.field("traced", r.traced);
    j.field("ok", r.ok);
    j.field("error", std::string_view(r.error));
    j.field("digest", std::string_view(r.digest));
    j.field("setup_s", r.setup_s);
    j.field("run_s", r.run_s);
    j.field("probe_memory_s", r.probe.memory_s);
    j.field("probe_compute_s", r.probe.compute_s);
    j.field("peak_rss_bytes", r.peak_rss_bytes);
    j.field("tasklets", r.tasklets);
    j.field("events", r.events);
    j.field("makespan_s", r.makespan_s);
    j.field("cpu_efficiency", r.cpu_efficiency);
    j.end_object();
  }
  j.end_array();
  if (opt.trace) {
    write_layers(j, layers);
    j.key("spans");
    spans.write(j);
  }
  j.end_object();
  std::puts(j.str().c_str());
  return 0;
}
