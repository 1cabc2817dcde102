// rng.hpp — deterministic random number generation for the reproduction.
//
// Every stochastic component in the system draws from a named stream derived
// from a scenario-level seed, so whole 10k-core simulated runs are
// reproducible bit-for-bit.  The core generator is xoshiro256**, which is
// fast, has a 256-bit state, and supports cheap stream splitting via
// SplitMix64 seeding.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace lobster::util {

/// SplitMix64 — used for seeding and for hashing stream names.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed from a single 64-bit value (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  /// Derive a child stream for a named component: deterministic in
  /// (parent seed, name).  Use this to give every worker / server / model
  /// its own independent stream.
  Rng stream(std::string_view name) const;

  /// Derive a child stream for an indexed component (e.g. worker #i).
  Rng stream(std::string_view name, std::uint64_t index) const;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()();

  // ---- distributions ------------------------------------------------------

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached spare).
  double normal();
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Normal truncated below at `lo` (resample; used for task durations
  /// which must be positive).
  double truncated_normal(double mean, double stddev, double lo);
  /// Exponential with given mean (NOT rate).
  double exponential(double mean);
  /// Pareto (Lomax) with shape alpha and scale xm: heavy-tailed durations.
  double pareto(double alpha, double xm);
  /// Weibull with shape k and scale lambda — used for machine availability.
  double weibull(double k, double lambda);
  /// Log-normal parametrised by the mean/sigma of the underlying normal.
  double lognormal(double mu, double sigma);
  /// Bernoulli trial.
  bool chance(double p);
  /// Poisson-distributed count with given mean (Knuth for small, normal
  /// approximation for large means).
  std::int64_t poisson(double mean);
  /// Zipf-distributed integer in [1, n] with exponent s (popularity ranks).
  std::int64_t zipf(std::int64_t n, double s);
  /// Pick an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
  // Lazily built Zipf CDF cache, keyed on (n, s); rebuilt when params change.
  std::vector<double> zipf_cdf_;
  std::int64_t zipf_n_ = 0;
  double zipf_s_ = 0.0;
};

/// An empirical distribution built from samples: draws via inverse-CDF on
/// the sorted sample set (with linear interpolation between order
/// statistics).  Used to replay "observed" availability-time distributions
/// in the style of Figure 2/3.
class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  /// Sorts the samples with an in-place radix sort (no scratch buffer; the
  /// same sequence std::sort gives).  Throws std::invalid_argument on a NaN.
  explicit EmpiricalDistribution(std::vector<double> samples);

  bool empty() const { return sorted_.empty(); }
  std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Arithmetic mean of the samples (0 when empty).  Summed once, in the
  /// constructor, over the sorted samples: O(1) per call.
  [[nodiscard]] double mean() const { return mean_; }
  /// Empirical quantile, q in [0, 1].
  double quantile(double q) const;
  /// Draw a value using the supplied generator.
  double sample(Rng& rng) const;
  /// Empirical CDF evaluated at x.
  double cdf(double x) const;
  /// The samples in ascending order.
  [[nodiscard]] const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
};

}  // namespace lobster::util
