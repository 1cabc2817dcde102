#include "util/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace lobster::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t hash_name(std::string_view name) {
  // FNV-1a, then one SplitMix64 round for avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::stream(std::string_view name) const {
  std::uint64_t mix = s_[0] ^ rotl(s_[1], 13) ^ hash_name(name);
  return Rng(mix);
}

Rng Rng::stream(std::string_view name, std::uint64_t index) const {
  std::uint64_t mix = s_[0] ^ rotl(s_[1], 13) ^ hash_name(name);
  std::uint64_t sm = mix + 0x9e3779b97f4a7c15ULL * (index + 1);
  return Rng(splitmix64(sm));
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53-bit mantissa in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire's unbiased bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < span) {
    const std::uint64_t t = -span % span;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * span;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::truncated_normal(double mean, double stddev, double lo) {
  for (int i = 0; i < 1000; ++i) {
    const double x = normal(mean, stddev);
    if (x >= lo) return x;
  }
  return lo;  // pathological parameters; clamp rather than loop forever
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::pareto(double alpha, double xm) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::weibull(double k, double lambda) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return lambda * std::pow(-std::log(u), 1.0 / k);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::chance(double p) { return uniform() < p; }

std::int64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::int64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction for large means.
  const double x = normal(mean, std::sqrt(mean));
  return std::max<std::int64_t>(0, static_cast<std::int64_t>(std::lround(x)));
}

std::int64_t Rng::zipf(std::int64_t n, double s) {
  if (n <= 0) throw std::invalid_argument("zipf: n must be positive");
  if (n != zipf_n_ || s != zipf_s_) {
    zipf_cdf_.resize(static_cast<std::size_t>(n));
    double sum = 0.0;
    for (std::int64_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      zipf_cdf_[static_cast<std::size_t>(k - 1)] = sum;
    }
    for (auto& v : zipf_cdf_) v /= sum;
    zipf_n_ = n;
    zipf_s_ = s;
  }
  const double u = uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return 1 + static_cast<std::int64_t>(it - zipf_cdf_.begin());
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0)
    throw std::invalid_argument("weighted_index: total weight must be > 0");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
  if (!sorted_.empty())
    mean_ = std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
            static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::min() const {
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double EmpiricalDistribution::max() const {
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double EmpiricalDistribution::quantile(double q) const {
  if (sorted_.empty()) throw std::logic_error("quantile of empty distribution");
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double EmpiricalDistribution::sample(Rng& rng) const {
  return quantile(rng.uniform());
}

double EmpiricalDistribution::cdf(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

}  // namespace lobster::util
