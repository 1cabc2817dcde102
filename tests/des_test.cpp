// Unit and property tests for the discrete-event simulation kernel:
// ordering, coroutine processes, events, resources, the event queue and the
// fair-share bandwidth link.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "des/bandwidth.hpp"
#include "des/event_queue.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace des = lobster::des;
namespace lu = lobster::util;

// ----------------------------------------------------------- scheduling ----

TEST(Simulation, EventsFireInTimeOrder) {
  des::Simulation sim;
  std::vector<double> fired;
  sim.schedule(3.0, [&] { fired.push_back(sim.now()); });
  sim.schedule(1.0, [&] { fired.push_back(sim.now()); });
  sim.schedule(2.0, [&] { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(fired[0], 1.0);
  EXPECT_DOUBLE_EQ(fired[1], 2.0);
  EXPECT_DOUBLE_EQ(fired[2], 3.0);
}

TEST(Simulation, SameTimeEventsFifo) {
  des::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, NestedSchedulingAdvancesClock) {
  des::Simulation sim;
  double inner_time = -1.0;
  sim.schedule(1.0, [&] {
    sim.schedule(2.5, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 3.5);
}

TEST(Simulation, RunUntilStopsAndSetsNow) {
  des::Simulation sim;
  int count = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) sim.schedule(t, [&] { ++count; });
  sim.run_until(2.5);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(count, 4);
}

TEST(Simulation, NegativeDelayRejected) {
  des::Simulation sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
}

// Property: a randomized burst of schedules always executes in
// non-decreasing time order.
TEST(Simulation, PropertyMonotoneExecution) {
  lu::Rng rng(99);
  des::Simulation sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 5000; ++i) {
    sim.schedule(rng.uniform(0.0, 100.0), [&] {
      monotone &= sim.now() >= last;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_executed(), 5000u);
}

// ------------------------------------------------------------ processes ----

namespace {
des::Process ping_pong(des::Simulation& sim, std::vector<double>& log,
                       double period, int repeats) {
  for (int i = 0; i < repeats; ++i) {
    co_await sim.delay(period);
    log.push_back(sim.now());
  }
}
}  // namespace

TEST(Process, DelayLoopAdvancesTime) {
  des::Simulation sim;
  std::vector<double> log;
  sim.spawn(ping_pong(sim, log, 2.0, 3));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[2], 6.0);
}

TEST(Process, JoinViaDoneEvent) {
  des::Simulation sim;
  std::vector<double> log;
  bool joined = false;
  auto ref = sim.spawn(ping_pong(sim, log, 1.0, 5));
  auto joiner = [](des::Simulation& s, des::ProcessRef r,
                   bool& flag) -> des::Process {
    co_await r.done();
    flag = true;
    (void)s;
  };
  sim.spawn(joiner(sim, ref, joined));
  sim.run();
  EXPECT_TRUE(joined);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Process, UnfinishedProcessesDestroyedWithSim) {
  // A process blocked forever must not leak when the simulation dies.
  auto forever = [](des::Simulation& s, des::Event& ev) -> des::Process {
    co_await ev;
    co_await s.delay(1.0);
  };
  des::Simulation sim;
  des::Event never(sim);
  sim.spawn(forever(sim, never));
  sim.run();
  EXPECT_EQ(sim.live_processes(), 1u);
  // Destructor runs here; ASAN/valgrind would flag a leak if broken.
}

TEST(Process, ExceptionPropagatesToRun) {
  auto thrower = [](des::Simulation& s) -> des::Process {
    co_await s.delay(1.0);
    throw std::runtime_error("boom");
  };
  des::Simulation sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

// ---------------------------------------------------------------- event ----

TEST(Event, BroadcastWakesAllWaiters) {
  des::Simulation sim;
  des::Event ev(sim);
  int woken = 0;
  auto waiter = [](des::Event& e, int& n) -> des::Process {
    co_await e;
    ++n;
  };
  for (int i = 0; i < 4; ++i) sim.spawn(waiter(ev, woken));
  sim.schedule(10.0, [&] { ev.trigger(); });
  sim.run();
  EXPECT_EQ(woken, 4);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Event, AwaitAfterTriggerCompletesImmediately) {
  des::Simulation sim;
  des::Event ev(sim);
  ev.trigger();
  double when = -1.0;
  auto waiter = [](des::Simulation& s, des::Event& e, double& t) -> des::Process {
    co_await e;
    t = s.now();
  };
  sim.spawn(waiter(sim, ev, when));
  sim.run();
  EXPECT_DOUBLE_EQ(when, 0.0);
}

TEST(Event, DoubleTriggerIsIdempotent) {
  des::Simulation sim;
  des::Event ev(sim);
  ev.trigger();
  ev.trigger();
  EXPECT_TRUE(ev.triggered());
  sim.run();
}

// -------------------------------------------------------------- resource ----

namespace {
des::Process hold_resource(des::Simulation& sim, des::Resource& res,
                           double duration, std::vector<double>& done_times,
                           std::int64_t amount = 1) {
  auto token = co_await res.acquire(amount);
  co_await sim.delay(duration);
  done_times.push_back(sim.now());
}
}  // namespace

TEST(Resource, LimitsConcurrency) {
  des::Simulation sim;
  des::Resource res(sim, 2);
  std::vector<double> done;
  for (int i = 0; i < 6; ++i) sim.spawn(hold_resource(sim, res, 10.0, done));
  sim.run();
  // 6 holders, 2 at a time, 10s each => batches at 10, 20, 30.
  ASSERT_EQ(done.size(), 6u);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
  EXPECT_DOUBLE_EQ(done[3], 20.0);
  EXPECT_DOUBLE_EQ(done[5], 30.0);
  EXPECT_EQ(res.available(), 2);
}

TEST(Resource, FifoNoStarvationOfLargeRequest) {
  des::Simulation sim;
  des::Resource res(sim, 4);
  std::vector<double> done;
  // Occupy all 4, then queue a request of 4, then small ones behind it.
  sim.spawn(hold_resource(sim, res, 10.0, done, 4));
  sim.spawn(hold_resource(sim, res, 10.0, done, 4));
  sim.spawn(hold_resource(sim, res, 1.0, done, 1));
  sim.spawn(hold_resource(sim, res, 1.0, done, 1));
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  // Big request must run before the small ones that arrived later.
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 20.0);
  EXPECT_DOUBLE_EQ(done[2], 21.0);
}

TEST(Resource, TryAcquireAndRelease) {
  des::Simulation sim;
  des::Resource res(sim, 3);
  EXPECT_TRUE(res.try_acquire(2));
  EXPECT_FALSE(res.try_acquire(2));
  EXPECT_EQ(res.in_use(), 2);
  res.release(2);
  EXPECT_EQ(res.available(), 3);
}

TEST(Resource, ElasticCapacity) {
  des::Simulation sim;
  des::Resource res(sim, 1);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) sim.spawn(hold_resource(sim, res, 10.0, done));
  sim.schedule(0.5, [&] { res.set_capacity(4); });
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  // After growth at t=0.5 the three queued holders start together.
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[3], 10.5);
}

TEST(Resource, TokenMoveTransfersOwnership) {
  des::Simulation sim;
  des::Resource res(sim, 1);
  {
    des::ResourceToken outer;
    {
      EXPECT_TRUE(res.try_acquire(1));
      des::ResourceToken inner(&res, 1);
      outer = std::move(inner);
      EXPECT_FALSE(inner.held());
    }
    EXPECT_EQ(res.available(), 0);  // still held by outer
  }
  EXPECT_EQ(res.available(), 1);
}

// ------------------------------------------------------------- bandwidth ----

namespace {
des::Process do_transfer(des::Simulation& sim, des::BandwidthLink& link,
                         double bytes, double cap, std::vector<double>& done) {
  co_await link.transfer(bytes, cap);
  done.push_back(sim.now());
}
}  // namespace

TEST(Bandwidth, SingleFlowTakesBytesOverCapacity) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);  // 100 B/s
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped, done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 10.0, 1e-9);
}

TEST(Bandwidth, TwoEqualFlowsShareFairly) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped, done));
  sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped, done));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 20.0, 1e-9);
  EXPECT_NEAR(done[1], 20.0, 1e-9);
}

TEST(Bandwidth, ShortFlowFinishesThenLongSpeedsUp) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 2000.0, des::BandwidthLink::kUncapped, done));
  sim.spawn(do_transfer(sim, link, 500.0, des::BandwidthLink::kUncapped, done));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Short flow: 500 B at 50 B/s => t=10.  Long: 500B by t=10, then full rate
  // for remaining 1500B => t=25.
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 25.0, 1e-9);
}

TEST(Bandwidth, PerFlowCapRespected) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 1000.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 1000.0, 10.0, done));  // capped at 10 B/s
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 100.0, 1e-9);
}

TEST(Bandwidth, MaxMinWaterFilling) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  // One capped flow (10 B/s) + two uncapped sharing the residual 90 B/s.
  sim.spawn(do_transfer(sim, link, 100.0, 10.0, done));
  sim.spawn(do_transfer(sim, link, 450.0, des::BandwidthLink::kUncapped, done));
  sim.spawn(do_transfer(sim, link, 450.0, des::BandwidthLink::kUncapped, done));
  sim.run_until(5.0);
  EXPECT_NEAR(link.allocated_rate(), 100.0, 1e-9);
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 10.0, 1e-9);  // capped flow: 100B / 10B/s
  // Uncapped: 45 B/s for 10 s = 450 done right at the same moment.
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST(Bandwidth, OutageStallsAndResumes) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped, done));
  sim.schedule(5.0, [&] { link.set_capacity(0.0); });   // outage at t=5
  sim.schedule(15.0, [&] { link.set_capacity(100.0); });  // restored at t=15
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 20.0, 1e-9);  // 10s of work + 10s stalled
}

TEST(Bandwidth, ZeroByteTransferIsImmediate) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 0.0, des::BandwidthLink::kUncapped, done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 0.0);
}

// Property: random flow sets conserve bytes and never exceed capacity.
TEST(Bandwidth, PropertyConservationUnderRandomLoad) {
  lu::Rng rng(1234);
  des::Simulation sim;
  des::BandwidthLink link(sim, 1e6);
  std::vector<double> done;
  double total_bytes = 0.0;
  int flows = 0;
  auto spawner = [&](double at, double bytes, double cap) {
    total_bytes += bytes;
    ++flows;
    sim.schedule(at, [&, bytes, cap] {
      sim.spawn(do_transfer(sim, link, bytes, cap, done));
    });
  };
  for (int i = 0; i < 200; ++i) {
    const double cap = rng.chance(0.3) ? rng.uniform(1e3, 1e5)
                                       : des::BandwidthLink::kUncapped;
    spawner(rng.uniform(0.0, 50.0), rng.uniform(1.0, 1e7), cap);
  }
  sim.run();
  EXPECT_EQ(static_cast<int>(done.size()), flows);
  EXPECT_NEAR(link.bytes_moved(), total_bytes, 1.0);
  EXPECT_EQ(link.active_flows(), 0u);
}

// ------------------------------------------- determinism tie-break pins ----

// The calendar queue must preserve the kernel's determinism contract: among
// equal timestamps, events fire in schedule-sequence order.  This test
// interleaves same-time clusters with scattered timestamps so the events
// cross bucket windows, overflow spills and window rebuilds, and pins the
// exact global (time, sequence) order.
TEST(Simulation, SameTimeScheduleSequenceOrderUnderCalendarStress) {
  des::Simulation sim;
  struct Fired {
    double time;
    int stamp;
  };
  std::vector<Fired> fired;
  std::vector<std::pair<double, int>> expected;
  int stamp = 0;
  // Three same-time clusters at 100, 2500 and 77777 interleaved with a
  // spread of unique times (deterministic pseudo-random walk).
  std::uint64_t x = 42;
  for (int round = 0; round < 400; ++round) {
    const double cluster = (round % 3 == 0) ? 100.0
                           : (round % 3 == 1) ? 2500.0
                                              : 77777.0;
    const int s1 = stamp++;
    sim.schedule(cluster, [&fired, &sim, s1] {
      fired.push_back({sim.now(), s1});
    });
    expected.emplace_back(cluster, s1);
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double t = static_cast<double>((x >> 33) % 100000) * 0.5;
    const int s2 = stamp++;
    sim.schedule(t, [&fired, &sim, s2] {
      fired.push_back({sim.now(), s2});
    });
    expected.emplace_back(t, s2);
  }
  sim.run();
  // Expected order: stable sort by time (sequence = insertion order breaks
  // ties because std::stable_sort preserves it).
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_DOUBLE_EQ(fired[i].time, expected[i].first) << "at " << i;
    EXPECT_EQ(fired[i].stamp, expected[i].second) << "at " << i;
  }
}

// Events scheduled *during* a same-timestamp batch (zero delay from inside
// a callback) join the end of the batch and still fire in schedule order —
// the active-batch append path of the calendar queue.
TEST(Simulation, ZeroDelayFromInsideBatchAppendsInOrder) {
  des::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(5.0, [&sim, &order, i] {
      order.push_back(i);
      sim.schedule(0.0, [&order, i] { order.push_back(10 + i); });
    });
  }
  sim.run();
  // The three scheduled events run first (0,1,2), then their zero-delay
  // children in the order the parents scheduled them (10,11,12).
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// ------------------------------------------ event queue differential ----
//
// des::EventQueue against a naive oracle: a std::priority_queue ordered by
// (time, seq), seq assigned in push order exactly as the queue does.  A
// seeded generator drives both in lockstep through thousands of schedules
// and demands an identical pop sequence (bitwise time, same item) and
// identical next_time() peeks.  The delay mix covers every insert path:
// same-timestamp appends during a batch, late arrivals into the draining
// bucket (short delays landing before its last item), exact ties with
// pending items (including the window's first item, i.e. win_start_),
// far-future pushes that spill to overflow and force window rebuilds, and
// pushes after a peek that land before the peeked batch.

namespace {

struct RefItem {
  double time;
  std::uint64_t id;  ///< push order == the queue's seq
};
struct RefAfter {
  bool operator()(const RefItem& a, const RefItem& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};

/// EventQueue plus oracle in lockstep.  Even ids go through push_resume
/// (the id rides in a never-resumed handle address), odd ids through
/// push_fn, so both payload kinds share every insert path.
class QueueDiff {
 public:
  void push(double t) {
    const std::uint64_t id = next_id_++;
    if (id % 2 == 0) {
      q_.push_resume(t, std::coroutine_handle<>::from_address(
                            reinterpret_cast<void*>((id + 1) * 16)));
    } else {
      q_.push_fn(t, [this, id] { fired_ = id; });
    }
    ref_.push(RefItem{t, id});
    recent_.push_back(t);
    if (recent_.size() > 16) recent_.erase(recent_.begin());
  }

  /// Pop from both; empty string on agreement.
  std::string pop() {
    des::EventQueue::Item item;
    const bool got = q_.pop_next(item);
    if (got != !ref_.empty()) return "pop: emptiness disagrees";
    if (!got) return {};
    std::uint64_t id;
    if (item.handle) {
      id = reinterpret_cast<std::uintptr_t>(item.handle.address()) / 16 - 1;
    } else {
      q_.take_fn(item.fn)();
      id = fired_;
    }
    const RefItem want = ref_.top();
    ref_.pop();
    if (item.time != want.time || id != want.id)
      return "pop: got (" + std::to_string(item.time) + ", #" +
             std::to_string(id) + ") want (" + std::to_string(want.time) +
             ", #" + std::to_string(want.id) + ")";
    now_ = item.time;
    return {};
  }

  /// Peek both; empty string on agreement.
  std::string peek() {
    const double want = ref_.empty() ? std::numeric_limits<double>::infinity()
                                     : ref_.top().time;
    peeked_ = q_.next_time();
    if (peeked_ != want)
      return "next_time: got " + std::to_string(peeked_) + " want " +
             std::to_string(want);
    if (q_.size() != ref_.size()) return "size disagrees";
    return {};
  }

  double now() const { return now_; }
  double peeked() const { return peeked_; }
  double front_time() const { return ref_.top().time; }
  bool empty() const { return ref_.empty(); }
  std::uint64_t pushes() const { return next_id_; }
  const std::vector<double>& recent() const { return recent_; }
  const des::EventQueue& queue() const { return q_; }

 private:
  des::EventQueue q_;
  std::priority_queue<RefItem, std::vector<RefItem>, RefAfter> ref_;
  std::vector<double> recent_;  ///< last pushed times, for exact ties
  std::uint64_t next_id_ = 0;
  std::uint64_t fired_ = 0;
  double now_ = 0.0;
  double peeked_ = std::numeric_limits<double>::infinity();
};

/// Run one seeded schedule; empty string on agreement, else the first
/// disagreement with its step number.
std::string run_queue_schedule(std::uint64_t seed) {
  lu::Rng rng(seed);
  lu::Rng shape = rng.stream("shape");
  lu::Rng draw = rng.stream("draw");
  QueueDiff d;
  // Per-schedule regime: population size, pop bias and the delay scale
  // relative to the window the initial fill builds.
  const double horizon = std::pow(10.0, shape.uniform(0.0, 5.0));
  const std::int64_t fill = shape.uniform_int(0, 300);
  const double pop_bias = shape.uniform(0.3, 0.7);
  const double short_scale = horizon * std::pow(10.0, shape.uniform(-6.0, 0.0));
  for (std::int64_t i = 0; i < fill; ++i) d.push(draw.uniform(0.0, horizon));

  const std::int64_t steps = 200 + shape.uniform_int(0, 600);
  bool after_peek = false;
  for (std::int64_t step = 0; step < steps || !d.empty(); ++step) {
    std::string err;
    const double roll = draw.uniform();
    const bool draining = step >= steps;
    if (draining ? roll < 0.8 : roll < pop_bias) {
      err = d.pop();
      after_peek = false;
    } else if (roll < pop_bias + 0.08 && !draining) {
      err = d.peek();
      after_peek = true;
    } else {
      const double now = d.now();
      const double kind = draw.uniform();
      double t;
      if (kind < 0.15) {
        t = now;  // same timestamp: joins an active batch
      } else if (kind < 0.25 && !d.recent().empty()) {
        // Exact tie with a recent push (seq must break it).
        const double tie = d.recent()[static_cast<std::size_t>(
            draw.uniform_int(0, static_cast<std::int64_t>(d.recent().size()) - 1))];
        t = std::max(now, tie);
      } else if (kind < 0.32 && !d.empty()) {
        t = d.front_time();  // the earliest pending (win_start_ after a rebuild)
      } else if (kind < 0.42 && after_peek && d.peeked() > now &&
                 d.peeked() != std::numeric_limits<double>::infinity()) {
        // After a peek: land before, or exactly on, the peeked batch.
        t = draw.chance(0.5) ? draw.uniform(now, d.peeked()) : d.peeked();
      } else if (kind < 0.50) {
        t = now + 0.125 * static_cast<double>(draw.uniform_int(0, 8));  // grid ties
      } else if (kind < 0.85) {
        t = now + draw.uniform(0.0, short_scale);  // late arrivals
      } else if (kind < 0.95) {
        t = now + draw.uniform(0.0, horizon);
      } else {
        t = now + horizon * draw.uniform(10.0, 1000.0);  // overflow
      }
      d.push(t);
    }
    if (!err.empty())
      return "seed " + std::to_string(seed) + " step " + std::to_string(step) +
             ": " + err;
  }
  return {};
}

}  // namespace

TEST(EventQueueDiff, FuzzedSchedulesMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    const std::string mismatch = run_queue_schedule(seed);
    ASSERT_TRUE(mismatch.empty()) << mismatch;
  }
}

// Targeted: a push after next_time() that lands before the peeked batch
// must pop first (the peek must not commit the batch).
TEST(EventQueueDiff, PushBeforePeekedBatchPopsFirst) {
  QueueDiff d;
  d.push(200.0);
  d.push(200.0);
  ASSERT_EQ(d.peek(), "");
  d.push(150.0);
  d.push(200.0);
  d.push(175.0);
  while (!d.empty()) ASSERT_EQ(d.pop(), "");
}

// Targeted: the cursor bucket holds late-heap items when a push after a
// peek lands in an earlier bucket.  The cursor steps back, and the heap
// must go back to its own bucket rather than be merged into the earlier one.
TEST(EventQueueDiff, LateHeapSurvivesCursorStepBack) {
  QueueDiff d;
  d.push(0.0);
  d.push(1000.0);  // 202 items: 128 buckets of 7.8125 s
  for (int i = 0; i < 200; ++i) d.push(47.0 + 0.03 * i);  // all in bucket 6
  ASSERT_EQ(d.pop(), "");   // 0.0
  ASSERT_EQ(d.peek(), "");  // cursor jumps to bucket 6, batch {47.0}
  d.push(47.51);  // before the bucket's last item: late heap
  d.push(47.52);
  d.push(20.0);  // bucket 2: hands the batch back, cursor steps back
  while (!d.empty()) ASSERT_EQ(d.pop(), "");
}

// Adversarial: the window is sized by one far event, so every live event
// lands in bucket 0 and nearly every push is a late arrival far from the
// bucket's end.  The order must still match the oracle, and the reordering
// work must stay linear in the pushes at every point of the run: a heap
// push or pop counts one, a bucket sort counts its items.  (Re-sorting the
// bucket's remainder after each late arrival costs ~20k items per pop here
// and fails the budget on the first check.)
TEST(EventQueueDiff, EveryEventInOneBucketStaysLinear) {
  lu::Rng rng(2024);
  QueueDiff d;
  const auto within_budget = [&d] {
    return d.queue().reorder_work() <= 4 * d.pushes();
  };
  d.push(0.0);
  d.push(1e9);  // window width 1e9 / 64: everything below lands in bucket 0
  ASSERT_EQ(d.pop(), "");
  constexpr int kLive = 20000;
  for (int i = 0; i < kLive; ++i) d.push(rng.uniform(0.0, 1000.0));
  for (int i = 0; i < 300000; ++i) {
    ASSERT_EQ(d.pop(), "") << "op " << i;
    d.push(d.now() + rng.uniform(0.0, 1000.0));
    if (i % 1000 == 0) {
      ASSERT_TRUE(within_budget())
          << "op " << i << ": reorder work " << d.queue().reorder_work();
    }
  }
  while (!d.empty()) ASSERT_EQ(d.pop(), "");
  EXPECT_TRUE(within_budget()) << d.queue().reorder_work();
}
