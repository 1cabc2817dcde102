#include "util/rng.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
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

// Order-preserving map of a non-NaN double onto an unsigned key: flip the
// sign bit of a non-negative value, invert every bit of a negative one.
// Unsigned key order is then numeric order, with -0.0 just below +0.0.
std::uint64_t sort_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits >> 63) ? ~bits : bits | (1ULL << 63);
}

double from_sort_key(std::uint64_t key) {
  return std::bit_cast<double>((key >> 63) ? key & ~(1ULL << 63) : ~key);
}

// The radix sort keeps its keys in the samples' own storage, so it
// allocates nothing.  The key bytes are copied in and out with memcpy and
// never read as doubles.
std::uint64_t load_key(const double* slot) {
  std::uint64_t key;
  std::memcpy(&key, slot, sizeof key);
  return key;
}

void store_key(double* slot, std::uint64_t key) {
  std::memcpy(slot, &key, sizeof key);
}

// In-place MSD radix sort ("American flag" sort) of n keys, one byte per
// level from the top.  Each level counts its bucket sizes, then moves
// every key into its bucket by following the cycle of keys it displaces.
// Equal keys are bitwise equal, so their order does not matter.  Short
// runs finish with an insertion sort.
void radix_sort_keys(double* keys, std::size_t n, unsigned shift) {
  if (n < 32) {
    for (std::size_t i = 1; i < n; ++i) {
      const std::uint64_t k = load_key(keys + i);
      std::size_t j = i;
      for (; j > 0 && load_key(keys + j - 1) > k; --j)
        store_key(keys + j, load_key(keys + j - 1));
      store_key(keys + j, k);
    }
    return;
  }
  const auto digit = [shift](std::uint64_t k) { return (k >> shift) & 0xFF; };
  std::array<std::size_t, 256> count{};
  for (std::size_t i = 0; i < n; ++i) ++count[digit(load_key(keys + i))];
  // A level whose digit is the same for every key needs no moves.
  if (count[digit(load_key(keys))] < n) {
    std::array<std::size_t, 256> next{};
    std::array<std::size_t, 256> end{};
    std::size_t offset = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      next[b] = offset;
      offset += count[b];
      end[b] = offset;
    }
    for (std::size_t b = 0; b < 256; ++b) {
      while (next[b] < end[b]) {
        std::uint64_t k = load_key(keys + next[b]);
        for (std::size_t d = digit(k); d != b; d = digit(k)) {
          const std::uint64_t displaced = load_key(keys + next[d]);
          store_key(keys + next[d]++, k);
          k = displaced;
        }
        store_key(keys + next[b]++, k);
      }
    }
  }
  if (shift == 0) return;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < 256; ++b) {
    if (count[b] > 1) radix_sort_keys(keys + begin, count[b], shift - 8);
    begin += count[b];
  }
}

// Sort doubles through their sort keys: linear work per key byte, against
// std::sort's n log n comparisons, and the same sequence of doubles.
void radix_sort(std::vector<double>& values) {
  for (double v : values)
    if (std::isnan(v))
      throw std::invalid_argument("EmpiricalDistribution: NaN sample");
  for (double& v : values) store_key(&v, sort_key(v));
  radix_sort_keys(values.data(), values.size(), 56);
  for (double& v : values) v = from_sort_key(load_key(&v));
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
  radix_sort(sorted_);
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
