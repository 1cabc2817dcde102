// availability.hpp — pluggable worker-availability models for SiteManager.
//
// The paper's core premise is running on *non-dedicated* resources whose
// availability is empirically measured and highly variable (§3, Figure 2).
// Which climate a site lives under changes the optimal task-sizing answer
// (the Figure 3 trade-off), so the climate is a pluggable layer like the
// DispatchPolicy and MergePlanner: one interface, four implementations,
// one factory, selectable from a scenario INI (`availability = ...`).
//
//   weibull           — the synthesized empirical log the engine has always
//                       used: 50k Weibull(shape, scale) lifetimes replayed
//                       through an inverse-CDF draw (bit-for-bit the legacy
//                       behaviour);
//   trace             — replay a real eviction-interval log (e.g. parsed
//                       from HTCondor logs) loaded from a CSV, cycling with
//                       per-worker phase offsets;
//   diurnal           — day/night sinusoidal modulation of the Weibull
//                       scale over simulated time (campus machines are
//                       reclaimed by interactive users during the day);
//   adversarial-burst — correlated mass-eviction events on a fixed period,
//                       the worst case for merge-group loss.
//
// AvailabilityModel extends core::EvictionModel, so every model also plugs
// into the §4.1 task-size Monte Carlo (fig03/fig12), and it exposes
// expected_lifetime(now) — the queryable distribution the ROADMAP's
// expected-lifetime DispatchPolicy needs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/task_size_model.hpp"
#include "util/rng.hpp"

namespace lobster::lobsim {

enum class AvailabilityKind { Weibull, Trace, Diurnal, AdversarialBurst };

const char* to_string(AvailabilityKind kind);

/// One site's availability climate.  The Weibull shape/scale double as the
/// base climate of the diurnal and burst models.
struct AvailabilityConfig {
  AvailabilityKind kind = AvailabilityKind::Weibull;
  double scale_hours = 4.0;  ///< Weibull scale (Figure 2 calibration)
  double shape = 0.8;        ///< Weibull shape (< 1: decreasing hazard)

  /// Trace replay: eviction intervals in seconds.  `trace` (preloaded,
  /// shareable across campaign runs) takes precedence over `trace_path`
  /// (a CSV loaded once per SiteManager).
  std::string trace_path;
  std::shared_ptr<const std::vector<double>> trace;

  /// Diurnal: fractional modulation of the scale, in [0, 1).  The scale
  /// bottoms out at scale*(1-amplitude) at `peak_hour` (harshest eviction)
  /// and peaks at scale*(1+amplitude) twelve hours later.
  double diurnal_amplitude = 0.6;
  double diurnal_peak_hour = 14.0;  ///< simulated hour-of-day, [0, 24)

  /// Adversarial bursts: every `burst_period_hours` a mass-eviction event
  /// claims `burst_fraction` of the then-running workers simultaneously.
  double burst_period_hours = 6.0;
  double burst_fraction = 0.5;
};

/// Survival-time model for a (re)started worker incarnation, extended with
/// the simulated start time and a replay phase.  The base-class
/// sample_survival(rng) keeps every model usable by the core task-size
/// Monte Carlo, which has no clock.
class AvailabilityModel : public core::EvictionModel {
 public:
  /// Draw the survival time of an incarnation starting at `now`.  `rng` is
  /// the worker's private stream; `phase` is the worker's replay position
  /// (per-worker offset + incarnation index), used by trace replay so
  /// concurrent workers walk different sections of the log.
  virtual double sample_survival_at(util::Rng& rng, double now,
                                    std::uint64_t phase) const = 0;
  /// Expected lifetime of a fresh incarnation starting at `now` — the
  /// queryable distribution an expected-lifetime DispatchPolicy sizes
  /// tasks against.  Engine::next_task evaluates it on every pull (each
  /// task start, and each wake of a parked slot), so it must be O(1):
  /// precompute anything derived from a log at construction.
  virtual double expected_lifetime(double now) const = 0;

  double sample_survival(util::Rng& rng) const override {
    return sample_survival_at(rng, 0.0, 0);
  }
};

/// Dedicated resources (evictions disabled): infinite survival.
class AlwaysAvailable final : public AvailabilityModel {
 public:
  double sample_survival_at(util::Rng&, double, std::uint64_t) const override;
  double expected_lifetime(double) const override;
  const char* name() const override { return "none"; }
};

/// The legacy climate: a synthesized 50k-lifetime Weibull availability log
/// replayed through an empirical inverse-CDF draw, exactly as SiteManager
/// has always done it (bit-for-bit, given the same log stream).
class WeibullAvailability final : public AvailabilityModel {
 public:
  WeibullAvailability(util::Rng log_stream, double shape, double scale_hours);
  double sample_survival_at(util::Rng& rng, double now,
                            std::uint64_t phase) const override;
  double expected_lifetime(double now) const override;
  const char* name() const override { return "weibull"; }
  const util::EmpiricalDistribution& distribution() const { return dist_; }

 private:
  util::EmpiricalDistribution dist_;
};

/// Replay of a recorded eviction-interval log.  Worker w's incarnation k
/// reads entry (phase_w + k) mod n — a cycling replay with per-worker
/// phase offsets, so the whole log is covered without two workers marching
/// in lockstep, and without consuming the worker's RNG stream.
class TraceAvailability final : public AvailabilityModel {
 public:
  explicit TraceAvailability(
      std::shared_ptr<const std::vector<double>> intervals);
  double sample_survival_at(util::Rng& rng, double now,
                            std::uint64_t phase) const override;
  /// Clock-free draw (task-size Monte Carlo): uniform over the log.
  double sample_survival(util::Rng& rng) const override;
  double expected_lifetime(double now) const override;
  const char* name() const override { return "trace"; }
  std::size_t size() const { return intervals_->size(); }

 private:
  std::shared_ptr<const std::vector<double>> intervals_;
  double mean_ = 0.0;
};

/// Day/night climate: Weibull survival whose scale is modulated
/// sinusoidally over the simulated day.  At `peak_hour` the scale bottoms
/// out (interactive users reclaim their machines); twelve hours later the
/// pool is calmest.
class DiurnalAvailability final : public AvailabilityModel {
 public:
  DiurnalAvailability(double shape, double scale_hours, double amplitude,
                      double peak_hour);
  double sample_survival_at(util::Rng& rng, double now,
                            std::uint64_t phase) const override;
  double expected_lifetime(double now) const override;
  const char* name() const override { return "diurnal"; }
  /// The modulated scale (seconds) at simulated time `now`.
  double scale_at(double now) const;

 private:
  double shape_;
  double scale_seconds_;
  double amplitude_;
  double peak_hour_;
  double mean_factor_;  ///< Gamma(1 + 1/shape): Weibull mean / scale
};

/// Correlated mass evictions: every `period` seconds a burst claims
/// `fraction` of the running workers at the same instant (a batch-system
/// drain, a priority preemption wave) — the worst case for merge-group
/// loss because co-scheduled tasks die together.  Between bursts the
/// survivors live under the calm Weibull base climate.
class AdversarialBurstAvailability final : public AvailabilityModel {
 public:
  AdversarialBurstAvailability(double shape, double scale_hours,
                               double period_hours, double fraction);
  double sample_survival_at(util::Rng& rng, double now,
                            std::uint64_t phase) const override;
  double expected_lifetime(double now) const override;
  const char* name() const override { return "adversarial-burst"; }
  /// The first burst instant strictly after `now`.
  double next_burst(double now) const;

 private:
  double shape_;
  double scale_seconds_;
  double period_;
  double fraction_;
  double mean_factor_;
};

/// Build a model from its config.  `log_stream` seeds the synthesized
/// Weibull log (the legacy `rng.stream("availability", site)` stream, so
/// `weibull` reproduces the pre-refactor engine bit-for-bit); the other
/// models ignore it.  Throws std::invalid_argument on bad parameters or an
/// unreadable/empty trace.
std::unique_ptr<AvailabilityModel> make_availability_model(
    const AvailabilityConfig& config, const util::Rng& log_stream);

/// Parse the scenario-INI / CLI spec syntax:
///
///   weibull[:scale=H,shape=S]
///   trace:PATH            (or trace:path=PATH)
///   diurnal[:scale=H,shape=S,amplitude=A,peak=HOUR]
///   adversarial-burst[:period=H,fraction=F,scale=H,shape=S]
///
/// Unknown kinds or keys throw std::invalid_argument.  scale/period accept
/// plain hours or duration suffixes ("90m", "1.5h").
AvailabilityConfig parse_availability_spec(const std::string& spec);

/// Load an eviction-interval trace: one or more comma-separated interval
/// values (seconds) per line; '#' comments and blank lines are skipped.
/// Throws std::invalid_argument on unreadable files, non-numeric fields,
/// non-positive intervals, or an empty trace.
std::vector<double> load_trace_csv(const std::string& path);

}  // namespace lobster::lobsim
