// simulation.hpp — coroutine-based discrete-event simulation kernel.
//
// The cluster-scale experiments of the Lobster paper (Figures 3-5, 7-11) are
// reproduced on this kernel.  It follows the SimPy process model: simulation
// entities are C++20 coroutines that co_await delays, one-shot events,
// counted resources and bandwidth transfers.  Determinism: events scheduled
// at the same timestamp fire in scheduling order (a monotonically increasing
// sequence number breaks ties), so a fixed seed reproduces a run exactly.
//
// Hot-path layout: pending events live in a two-level calendar queue
// (des/event_queue.hpp) and live processes in a generational slab
// (des/handle.hpp) — no per-event heap nodes, no pointer-keyed hash maps.
// Coroutine resumptions travel as raw handles (schedule_resume); only
// external callbacks pay for std::function type erasure.
//
// Ownership model: a coroutine returning des::Process starts suspended and
// owns its own frame until Simulation::spawn() takes it over.  Frames are
// destroyed either when the process finishes (inside final_suspend) or when
// the Simulation is destroyed with processes still pending.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "des/event_queue.hpp"
#include "des/handle.hpp"
#include "util/trace.hpp"

namespace lobster::des {

class Simulation;
class Event;

/// Handle for joining a spawned process: exposes the completion event.
/// Internally an EntityHandle into the simulation's live-process slab; the
/// completion Event is materialised lazily on the first done() call, so a
/// spawn that nobody joins allocates nothing.
class ProcessRef {
 public:
  ProcessRef() = default;
  ProcessRef(Simulation* sim, EntityHandle h) : sim_(sim), h_(h) {}
  /// Completion event — co_await ref.done() to join the process.  For an
  /// already-finished process this returns an event that is triggered.
  Event& done() const;
  bool valid() const { return sim_ != nullptr; }

 private:
  Simulation* sim_ = nullptr;
  EntityHandle h_;
  mutable std::shared_ptr<Event> done_;  ///< cache of the joined event
};

/// Coroutine return type for simulation processes.
class [[nodiscard]] Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Simulation* sim = nullptr;
    /// Completion event, created lazily by ProcessRef::done().
    std::shared_ptr<Event> done;
    /// This process's slot in the simulation's live-process slab.
    EntityHandle live;

    Process get_return_object() {
      return Process(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(Handle h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception();
  };

  Process(Process&& o) noexcept : handle_(o.handle_) { o.handle_ = nullptr; }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process& operator=(Process&&) = delete;
  ~Process() {
    if (handle_) handle_.destroy();
  }

 private:
  friend class Simulation;
  explicit Process(Handle h) : handle_(h) {}
  Handle handle_;
};

/// A one-shot broadcast event.  Processes co_await it; trigger() resumes
/// every waiter (at the current simulation time, via the event queue).
/// Awaiting an already-triggered event completes immediately.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void trigger();
  bool triggered() const { return triggered_; }

  /// Register a coroutine to resume on trigger (used by custom awaitables
  /// such as BandwidthLink::TransferAwaiter).  Caller must have checked
  /// triggered() first.
  void add_waiter(std::coroutine_handle<> h) { waiters_.push_back(h); }

  struct Awaiter {
    Event* event;
    bool await_ready() const noexcept { return event->triggered_; }
    void await_suspend(std::coroutine_handle<> h) {
      event->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() { return Awaiter{this}; }

 private:
  Simulation* sim_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// The simulation engine: a time-ordered calendar queue plus the process
/// registry.  Time is a double in seconds starting at 0.
class Simulation {
 public:
  Simulation() { tracer_.bind_clock(&now_); }
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  double now() const { return now_; }

  /// Schedule a raw callback `delay` seconds from now (delay >= 0).
  void schedule(double delay, std::function<void()> fn);

  /// Schedule a coroutine resumption `delay` seconds from now — the
  /// allocation-free fast path used by delays, event triggers and resource
  /// grants.
  void schedule_resume(double delay, std::coroutine_handle<> h);

  /// Take ownership of a process coroutine and schedule its first step at
  /// the current time.  Returns a joinable reference.
  ProcessRef spawn(Process p);

  /// Awaitable pause: co_await sim.delay(dt).
  struct DelayAwaiter {
    Simulation* sim;
    double dt;
    bool await_ready() const noexcept { return dt <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->schedule_resume(dt, h);
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(double dt) { return DelayAwaiter{this, dt}; }

  /// Create an event owned by shared_ptr (convenience).
  std::shared_ptr<Event> make_event() { return std::make_shared<Event>(*this); }

  /// Execute the next pending callback.  Returns false when queue is empty.
  bool step();
  /// Run until the queue drains (or `max_events` callbacks have run).
  void run(std::uint64_t max_events = ~0ULL);
  /// Run callbacks with timestamp <= t, then set now() = t.
  void run_until(double t);

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::size_t live_processes() const { return live_.size(); }

  /// Per-simulation span/event emitter, clock-bound to now().  Inert until
  /// a trace is opened (Tracer::open).
  util::Tracer& tracer() { return tracer_; }
  /// The unified counter plane: DES models and the engine register named
  /// counters here; wq/chirp/hdfs substrate objects can bind to it too.
  util::CounterRegistry& counters() { return counters_; }

 private:
  friend struct Process::promise_type;
  friend class ProcessRef;

  /// One entry per live (spawned, unfinished) process coroutine.
  struct LiveProc {
    void* frame = nullptr;
    std::uint64_t spawn_seq = 0;
  };

  void unregister(EntityHandle h) { live_.erase(h); }
  /// The completion event for live process `h`, creating it in the promise
  /// on first use; a shared pre-triggered event when `h` is stale
  /// (process already finished).
  std::shared_ptr<Event> join_event(EntityHandle h);
  void record_error(std::exception_ptr e) {
    if (!error_) error_ = e;
  }
  void maybe_rethrow();

  double now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::uint64_t spawned_ = 0;
  EventQueue queue_;
  /// Live coroutine frames; spawn_seq makes teardown deterministic
  /// (reverse-spawn order), independent of slot reuse.
  Slab<LiveProc> live_;
  /// Lazily created, already-triggered event handed to joins of finished
  /// processes.
  std::shared_ptr<Event> finished_event_;
  std::exception_ptr error_;
  util::Tracer tracer_;
  util::CounterRegistry counters_;
  /// Cached so step() pays one atomic add, not a map lookup.
  util::Counter* events_counter_ = &counters_.counter("des.kernel.events_dispatched");
};

inline Event& ProcessRef::done() const {
  if (!done_) done_ = sim_->join_event(h_);
  return *done_;
}

}  // namespace lobster::des
