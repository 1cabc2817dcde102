// trace.hpp — structured tracing and the unified counter plane (paper §5).
//
// "We have implemented a comprehensive monitoring system that covers almost
// every aspect of the system and the infrastructure."  core::Monitor holds
// the aggregates; this layer records *why an individual task was slow*: a
// per-task span timeline plus named counters, exported as JSONL (one event
// per line, machine-readable) or as Chrome trace events (load the file in
// Perfetto / chrome://tracing and scrub the task lifecycle visually).
//
// Design constraints, in priority order:
//
//  * Deterministic.  Spans are stamped with *simulated* time (the Tracer's
//    clock is bound to des::Simulation::now()), events are buffered in
//    memory and flushed on close, and doubles are printed as "%.17g" so a
//    run's trace file is bitwise identical no matter which campaign worker
//    thread executed it — the same contract the golden-metrics harness
//    pins for scalar metrics.
//  * Near-free when disabled.  With no trace open, Tracer::span()
//    returns an inert Span (null tracer pointer, no clock read, no
//    allocation) and counters are plain relaxed atomics; the hot paths of
//    the DES kernel and the engine pay one predictable branch.
//  * One counter plane.  CounterRegistry serves both worlds: the
//    single-threaded DES models and the real multi-threaded wq/chirp/hdfs
//    substrate share the same named-counter type (atomics make it safe),
//    and snapshot() returns a name-ordered view for deterministic export.
//
// Counter naming convention: `<layer>.<subsystem>.<metric>` with
// lower_snake_case metrics, e.g. "cvmfs.squid.requests",
// "wq.master.dispatched", "lobsim.engine.tasklets_retried".  Monotonic event
// counts are Counters (integers); byte volumes and levels are Gauges
// (doubles).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace lobster::util {

// ---------------------------------------------------------------------------
// Export formats
// ---------------------------------------------------------------------------

enum class TraceFormat : std::uint8_t { Jsonl, Chrome };
const char* to_string(TraceFormat f);
/// ".jsonl" / ".json" — what a per-run trace file should end with.
const char* trace_extension(TraceFormat f);
/// Parse "jsonl" / "chrome"; throws std::invalid_argument otherwise.
TraceFormat parse_trace_format(const std::string& s);

/// One numeric key/value attached to a span end or instant event.  Keys are
/// string literals (span sites name them statically); values are doubles so
/// segment times survive the round trip exactly.
struct TraceArg {
  const char* key;
  double value;
};

// ---------------------------------------------------------------------------
// Tracer + RAII spans
// ---------------------------------------------------------------------------

class Tracer;

/// RAII span: begin event at construction, end event at destruction (or an
/// explicit end()), so spans stay balanced even when a task throws or a
/// coroutine frame unwinds at teardown.  Inert (null tracer) when tracing
/// is disabled: no clock read, no allocation.
class [[nodiscard]] Span {
 public:
  Span() = default;
  Span(Span&& o) noexcept
      : tracer_(o.tracer_), cat_(o.cat_), name_(o.name_), track_(o.track_),
        args_(std::move(o.args_)) {
    o.tracer_ = nullptr;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span& operator=(Span&&) = delete;
  ~Span() { end(); }

  /// True when the span is live (tracing enabled and not yet ended).
  explicit operator bool() const { return tracer_ != nullptr; }

  /// Attach a numeric argument to the end event.  `key` must outlive the
  /// span (string literals at the call sites).  No-op when inert.
  void arg(const char* key, double value) {
    if (tracer_) args_.push_back({key, value});
  }

  /// Emit the end event now; the destructor becomes a no-op.
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, const char* cat, const char* name, std::uint64_t track)
      : tracer_(tracer), cat_(cat), name_(name), track_(track) {}

  Tracer* tracer_ = nullptr;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t track_ = 0;
  std::vector<TraceArg> args_;
};

/// The per-simulation trace writer.  Owned by des::Simulation; time comes
/// from a bound clock pointer (the simulation's now), so every event is
/// stamped with simulated seconds and the trace is independent of wall
/// time, thread scheduling, and host load.
///
/// Each event is formatted into one in-memory buffer as it happens, in the
/// format chosen at open(), and the buffer is written to the destination
/// file in one piece at close() — one flush keeps per-run files bitwise
/// deterministic and keeps file I/O off the simulation hot path.
///
///  * JSONL: one JSON object per line, `ev` is B/E/i/C, `t` is simulated
///    seconds.  The machine-readable format lobster_report and the tests
///    consume (read_trace_jsonl below round-trips it).
///  * Chrome trace-event JSON: a {"traceEvents":[...]} array with
///    microsecond timestamps, pid 0 and the span's track as tid — loadable
///    in Perfetto and chrome://tracing.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Bind the time source (des::Simulation points this at its now).
  void bind_clock(const double* now) { clock_ = now; }
  /// Start a trace in `format`, discarding any unflushed one.  An empty
  /// `path` keeps the trace in memory only (see buffer()).
  void open(TraceFormat format, std::string path);
  [[nodiscard]] bool enabled() const { return open_; }
  [[nodiscard]] double now() const { return clock_ ? *clock_ : 0.0; }
  /// The formatted trace: the events so far while open, the whole document
  /// after close() of an in-memory trace (a file trace releases it).
  [[nodiscard]] const std::string& buffer() const { return buf_; }

  /// Open a span on `track`; inert when disabled.
  Span span(const char* cat, const char* name, std::uint64_t track = 0) {
    if (!open_) return Span();
    event('B', cat, name, track, {});
    return Span(this, cat, name, track);
  }

  /// A zero-duration marker event.
  void instant(const char* cat, const char* name, std::uint64_t track = 0,
               std::initializer_list<TraceArg> args = {}) {
    if (open_) event('i', cat, name, track, args);
  }

  /// A counter sample (Perfetto renders these as a value track).
  void counter(const char* name, double value) {
    if (!open_) return;
    const TraceArg sample{"value", value};
    event('C', "counter", name, 0, {&sample, 1});
  }

  /// Finish the document and write it to the path given at open().
  /// Tracing is disabled afterwards; throws std::runtime_error when the
  /// file cannot be written.  No-op when no trace is open.
  void close();

 private:
  friend class Span;
  /// The one event path: `phase` is B/E/i/C; a counter's sample is its one
  /// arg, "value".  The format decides the envelope, nothing else.
  void event(char phase, const char* cat, const char* name,
             std::uint64_t track, std::span<const TraceArg> args);

  const double* clock_ = nullptr;
  bool open_ = false;
  TraceFormat format_ = TraceFormat::Jsonl;
  bool first_event_ = true;
  std::string path_;
  std::string buf_;
};

inline void Span::end() {
  if (!tracer_) return;
  // The trace may already be flushed (Tracer::close at the end of a
  // truncated run) while suspended coroutine frames still hold live spans;
  // their teardown must not append to a finished document.
  if (tracer_->open_)
    tracer_->event('E', cat_, name_, track_, args_);
  tracer_ = nullptr;
}

// ---------------------------------------------------------------------------
// Counter plane
// ---------------------------------------------------------------------------

/// A named monotonic event count.  Relaxed atomics: safe from the real
/// multi-threaded substrate (wq workers, chirp/hdfs servers) and free of
/// ordering side effects in the single-threaded DES models.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A named double-valued level (byte volumes, occupancy).  add() is a CAS
/// loop so pre-C++20-atomic-float toolchains are not required.
class Gauge {
 public:
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  void set(double d) noexcept { v_.store(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Registry of named counters and gauges.  Registration (the map insert)
/// takes a mutex; the returned references are stable for the registry's
/// lifetime, so hot paths cache the pointer once and then touch only the
/// atomic.  Instances sharing a name share the counter — that is the
/// "unified plane": every squid of a site, every worker slot, and the
/// engine all accumulate into one namespace.
class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Find-or-create; the reference stays valid until the registry dies.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  struct Sample {
    std::string name;
    double value = 0.0;
    bool is_gauge = false;
  };
  /// Every counter and gauge, name-ordered (deterministic export order).
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Windowed view: `after - before` for two name-ordered snapshots of the
  /// same registry.  The result carries one Sample per name in `after`
  /// (value = after minus before, 0 when the name is new); names present
  /// only in `before` are dropped — a registry never unregisters, so that
  /// case only arises when comparing unrelated registries.  This is the
  /// primitive behind "retries/s over the last 300 s": take a snapshot per
  /// advisor tick and diff against the previous one instead of scanning
  /// traces.
  [[nodiscard]] static std::vector<Sample> snapshot_delta(
      const std::vector<Sample>& before, const std::vector<Sample>& after);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LOBSTER_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      LOBSTER_GUARDED_BY(mutex_);
};

/// Exponentially-weighted moving-average *rate* of a cumulative total,
/// bound to simulated time: feed it (now, total) observations and read back
/// a smoothed events-per-second level whose memory decays with time
/// constant `tau` seconds.  Irregular sampling intervals are handled by the
/// standard alpha = 1 - exp(-dt/tau) correction, so an advisor ticking
/// every 300 s and a gauge sampler ticking every 60 s see consistent
/// semantics.  Pure arithmetic over doubles — deterministic wherever the
/// inputs are.
class EwmaRate {
 public:
  /// `tau` must be > 0 (seconds of smoothing memory).
  explicit EwmaRate(double tau) : tau_(tau > 0.0 ? tau : 1.0) {}

  /// Observe the cumulative total at simulated time `now`.  The first call
  /// only primes the baseline (rate stays 0); calls that do not advance
  /// time are ignored.  Returns the updated rate.
  double update(double now, double total);

  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] double tau() const { return tau_; }

 private:
  double tau_;
  double rate_ = 0.0;
  double last_t_ = 0.0;
  double last_total_ = 0.0;
  bool primed_ = false;
};

/// Null-tolerant increments for call sites whose registry wiring is
/// optional (the wq substrate binds counters only when a plane is
/// attached).
inline void bump(Counter* c, std::uint64_t n = 1) {
  if (c) c->add(n);
}
inline void bump(Gauge* g, double d) {
  if (g) g->add(d);
}

// ---------------------------------------------------------------------------
// Reading traces back (lobster_report, validation, tests)
// ---------------------------------------------------------------------------

/// One parsed JSONL trace event.
struct TraceEvent {
  char phase = '?';  ///< 'B' begin, 'E' end, 'i' instant, 'C' counter
  double t = 0.0;
  std::uint64_t track = 0;
  std::string cat;
  std::string name;
  double value = 0.0;  ///< counter events
  std::vector<std::pair<std::string, double>> args;

  /// Value of `key` in args, or `fallback`.
  [[nodiscard]] double arg(const std::string& key,
                           double fallback = 0.0) const;
};

/// Parse a JSONL trace file; throws std::runtime_error on unreadable files
/// or malformed lines.
std::vector<TraceEvent> read_trace_jsonl(const std::string& path);
/// Parse from memory (one event per line).
std::vector<TraceEvent> parse_trace_jsonl(const std::string& text);

/// Structural validation: timestamps non-negative and non-decreasing in
/// file order, begin/end spans balanced per track with matching names.
/// Returns "" when valid, else a description of the first violation.
std::string validate_trace(const std::vector<TraceEvent>& events);

}  // namespace lobster::util
