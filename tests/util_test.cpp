// Unit tests for the util module: units, RNG + distributions, histograms,
// stats, config parsing, tables, channels and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "util/channel.hpp"
#include "util/config.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace lu = lobster::util;

// ---------------------------------------------------------------- units ----

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(lu::minutes(1), 60.0);
  EXPECT_DOUBLE_EQ(lu::hours(2), 7200.0);
  EXPECT_DOUBLE_EQ(lu::days(1), 86400.0);
}

TEST(Units, ByteHelpers) {
  EXPECT_DOUBLE_EQ(lu::kib(1), 1024.0);
  EXPECT_DOUBLE_EQ(lu::mb(1), 1e6);
  EXPECT_DOUBLE_EQ(lu::gbit_per_s(10), 10e9 / 8.0);
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(lu::format_duration(5.0), "5.0s");
  EXPECT_EQ(lu::format_duration(90.0), "1m30s");
  EXPECT_EQ(lu::format_duration(3660.0), "1h01m");
  EXPECT_EQ(lu::format_duration(2 * 86400.0 + 3 * 3600.0), "2d03h");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(lu::format_bytes(512), "512 B");
  EXPECT_EQ(lu::format_bytes(3.4e9), "3.40 GB");
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  lu::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsAreIndependent) {
  lu::Rng root(7);
  lu::Rng a = root.stream("worker", 0);
  lu::Rng b = root.stream("worker", 1);
  lu::Rng c = root.stream("squid");
  EXPECT_NE(a(), b());
  EXPECT_NE(a(), c());
  // Streams must be reproducible.
  lu::Rng a2 = lu::Rng(7).stream("worker", 0);
  a = lu::Rng(7).stream("worker", 0);
  EXPECT_EQ(a(), a2());
}

TEST(Rng, UniformRange) {
  lu::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  lu::Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform_int(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
    saw_lo |= v == -3;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  lu::Rng rng(3);
  lu::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(10.0, 5.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 5.0, 0.1);
}

TEST(Rng, TruncatedNormalRespectsFloor) {
  lu::Rng rng(4);
  for (int i = 0; i < 10000; ++i)
    EXPECT_GE(rng.truncated_normal(1.0, 5.0, 0.5), 0.5);
}

TEST(Rng, ExponentialMean) {
  lu::Rng rng(5);
  lu::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(42.0));
  EXPECT_NEAR(s.mean(), 42.0, 1.0);
}

TEST(Rng, ChanceProbability) {
  lu::Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, PoissonMean) {
  lu::Rng rng(7);
  lu::RunningStats small, large;
  for (int i = 0; i < 50000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
    large.add(static_cast<double>(rng.poisson(200.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 200.0, 1.0);
}

TEST(Rng, ZipfRankOneMostPopular) {
  lu::Rng rng(8);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 50000; ++i)
    counts[static_cast<std::size_t>(rng.zipf(10, 1.2))]++;
  for (int k = 2; k <= 10; ++k) EXPECT_GT(counts[1], counts[k]);
}

TEST(Rng, WeightedIndex) {
  lu::Rng rng(9);
  std::vector<double> w{1.0, 0.0, 3.0};
  int c0 = 0, c1 = 0, c2 = 0;
  for (int i = 0; i < 40000; ++i) {
    switch (rng.weighted_index(w)) {
      case 0: ++c0; break;
      case 1: ++c1; break;
      default: ++c2; break;
    }
  }
  EXPECT_EQ(c1, 0);
  EXPECT_NEAR(static_cast<double>(c2) / (c0 + c2), 0.75, 0.02);
}

TEST(EmpiricalDistribution, QuantilesAndSampling) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(static_cast<double>(i));
  lu::EmpiricalDistribution dist(samples);
  EXPECT_DOUBLE_EQ(dist.min(), 1.0);
  EXPECT_DOUBLE_EQ(dist.max(), 1000.0);
  EXPECT_NEAR(dist.quantile(0.5), 500.5, 1.0);
  EXPECT_NEAR(dist.cdf(500.0), 0.5, 0.01);
  lu::Rng rng(10);
  lu::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(dist.sample(rng));
  EXPECT_NEAR(s.mean(), dist.mean(), 5.0);
}

// The constructor's radix sort must give std::sort's sequence bit for bit.
// The logs mix magnitudes, signs, infinities, subnormals and both zeros.
// std::sort leaves the order of -0.0 and +0.0 (equal under <) unspecified,
// so the reference sorts by IEEE total order, which puts -0.0 first, and
// plain std::sort must agree value for value.
TEST(EmpiricalDistribution, RadixSortMatchesStdSortBitForBit) {
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 3.0,
                             -std::numeric_limits<double>::min() / 7.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest()};
  lu::Rng rng(2015);
  for (std::size_t n : {1u, 2u, 255u, 256u, 257u, 5000u, 50000u}) {
    std::vector<double> log;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform();
      if (u < 0.1)
        log.push_back(specials[rng.uniform_int(0, 9)]);
      else if (u < 0.2)
        log.push_back(-rng.weibull(0.8, 3600.0));
      else if (u < 0.3 && !log.empty())
        log.push_back(log[rng.uniform_int(0, static_cast<std::int64_t>(log.size()) - 1)]);
      else
        log.push_back(rng.weibull(0.8, 3600.0));
    }
    std::vector<double> total = log;
    std::sort(total.begin(), total.end(), [](double a, double b) {
      return a < b || (a == b && std::signbit(a) && !std::signbit(b));
    });
    std::vector<double> plain = log;
    std::sort(plain.begin(), plain.end());

    const lu::EmpiricalDistribution dist(log);
    EXPECT_EQ(bits(dist.sorted()), bits(total)) << "n=" << n;
    EXPECT_EQ(dist.sorted(), plain) << "n=" << n;
    if (std::none_of(log.begin(), log.end(), [](double x) {
          return x == 0.0 && std::signbit(x);
        })) {
      EXPECT_EQ(bits(dist.sorted()), bits(plain)) << "n=" << n;
    }
  }
  // The availability log itself: positive Weibull draws, no zeros.
  std::vector<double> weibull;
  for (int i = 0; i < 50000; ++i) weibull.push_back(rng.weibull(0.8, 4.0 * 3600.0));
  std::vector<double> want = weibull;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(bits(lu::EmpiricalDistribution(weibull).sorted()), bits(want));
}

TEST(EmpiricalDistribution, RejectsNaN) {
  EXPECT_THROW(lu::EmpiricalDistribution(
                   {1.0, std::numeric_limits<double>::quiet_NaN(), 2.0}),
               std::invalid_argument);
}

// mean() is cached at construction.  It must be bitwise equal to the
// left-to-right sum over the *sorted* samples, or every availability-driven
// golden would drift.
TEST(EmpiricalDistribution, CachedMeanIsBitwiseTheSortedSum) {
  lu::Rng rng(77);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.weibull(0.8, 3600.0));
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double want = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
                      static_cast<double>(sorted.size());
  // Summing in draw order rounds differently; the cache must not do that.
  ASSERT_NE(std::accumulate(samples.begin(), samples.end(), 0.0) /
                static_cast<double>(samples.size()),
            want);
  const lu::EmpiricalDistribution dist(samples);
  EXPECT_EQ(dist.mean(), want);

  const lu::EmpiricalDistribution one({42.5});
  EXPECT_EQ(one.mean(), 42.5);

  const lu::EmpiricalDistribution none;
  EXPECT_EQ(none.mean(), 0.0);
  const lu::EmpiricalDistribution none_from_vector(std::vector<double>{});
  EXPECT_EQ(none_from_vector.mean(), 0.0);
}

// ------------------------------------------------------------ histogram ----

TEST(Histogram, FillAndRetrieve) {
  lu::Histogram h(10, 0.0, 10.0);
  h.fill(0.5);
  h.fill(0.7);
  h.fill(9.5);
  h.fill(-1.0);   // underflow
  h.fill(100.0);  // overflow
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
  EXPECT_EQ(h.entries(), 5u);
}

TEST(Histogram, CustomEdges) {
  lu::Histogram h({0.0, 1.0, 10.0, 100.0});
  h.fill(5.0, 2.5);
  EXPECT_EQ(h.nbins(), 3u);
  EXPECT_DOUBLE_EQ(h.count(1), 2.5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(Histogram, DensityNormalises) {
  lu::Histogram h(4, 0.0, 4.0);
  for (double x : {0.5, 1.5, 1.7, 3.5}) h.fill(x);
  auto d = h.density();
  double sum = 0.0;
  for (double v : d) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(lu::Histogram(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(lu::Histogram(5, 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(lu::Histogram(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(lu::Histogram(std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
}

TEST(Binomial, EstimateAndError) {
  const auto e = lu::binomial_estimate(25, 100);
  EXPECT_DOUBLE_EQ(e.p, 0.25);
  EXPECT_NEAR(e.sigma, std::sqrt(0.25 * 0.75 / 100.0), 1e-12);
  const auto zero = lu::binomial_estimate(0, 0);
  EXPECT_DOUBLE_EQ(zero.p, 0.0);
  EXPECT_DOUBLE_EQ(zero.sigma, 0.0);
}

TEST(TimeSeries, AddAndSample) {
  lu::TimeSeries ts(0.0, 10.0);
  ts.add(1.0);
  ts.add(5.0);
  ts.add(15.0, 2.0);
  ts.sample(2.0, 100.0);
  ts.sample(8.0, 200.0);
  EXPECT_DOUBLE_EQ(ts.sum(0), 2.0);
  EXPECT_DOUBLE_EQ(ts.sum(1), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_level(0), 150.0);
  EXPECT_DOUBLE_EQ(ts.mean_level(1), 0.0);
  EXPECT_DOUBLE_EQ(ts.total(), 4.0);
  EXPECT_DOUBLE_EQ(ts.max_sum(), 2.0);
}

// ---------------------------------------------------------------- stats ----

TEST(RunningStats, MeanVarianceMinMax) {
  lu::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  lu::Rng rng(11);
  lu::RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Reservoir, QuantileApproximation) {
  lu::Reservoir r(1000, lu::Rng(12));
  for (int i = 1; i <= 100000; ++i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.seen(), 100000u);
  EXPECT_NEAR(r.quantile(0.5), 50000.0, 5000.0);
  EXPECT_NEAR(r.quantile(0.99), 99000.0, 3000.0);
}

// --------------------------------------------------------------- config ----

TEST(Config, ParseBasics) {
  const auto cfg = lu::Config::parse(R"(
[workflow]
dataset = /SingleMu/Run2012A  # comment
task_size = 25
merge_size = 3.5GB
task_overhead = 20m
streaming = true
inputs = a.root, b.root , c.root
)");
  EXPECT_EQ(cfg.get_string("workflow", "dataset"), "/SingleMu/Run2012A");
  EXPECT_EQ(cfg.get_int("workflow", "task_size"), 25);
  EXPECT_DOUBLE_EQ(cfg.get_size("workflow", "merge_size"), 3.5e9);
  EXPECT_DOUBLE_EQ(cfg.get_duration("workflow", "task_overhead"), 1200.0);
  EXPECT_TRUE(cfg.get_bool("workflow", "streaming"));
  const auto list = cfg.get_list("workflow", "inputs");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1], "b.root");
}

TEST(Config, FallbacksAndHas) {
  const auto cfg = lu::Config::parse("[a]\nx = 1\n");
  EXPECT_TRUE(cfg.has("a", "x"));
  EXPECT_FALSE(cfg.has("a", "y"));
  EXPECT_FALSE(cfg.has("b", "x"));
  EXPECT_EQ(cfg.get_int("a", "y", -7), -7);
  EXPECT_EQ(cfg.get_string("b", "x", "dflt"), "dflt");
}

TEST(Config, SyntaxErrors) {
  EXPECT_THROW(lu::Config::parse("[unterminated\n"), std::runtime_error);
  EXPECT_THROW(lu::Config::parse("keywithoutvalue\n"), std::runtime_error);
  EXPECT_THROW(lu::Config::parse("= novalue\n"), std::runtime_error);
}

TEST(Config, DurationAndSizeParsing) {
  EXPECT_DOUBLE_EQ(lu::Config::parse_duration("90"), 90.0);
  EXPECT_DOUBLE_EQ(lu::Config::parse_duration("1.5h"), 5400.0);
  EXPECT_DOUBLE_EQ(lu::Config::parse_duration("2d"), 172800.0);
  EXPECT_THROW(lu::Config::parse_duration("5 parsecs"), std::runtime_error);
  EXPECT_DOUBLE_EQ(lu::Config::parse_size("100MB"), 1e8);
  EXPECT_DOUBLE_EQ(lu::Config::parse_size("1GiB"), 1073741824.0);
  EXPECT_THROW(lu::Config::parse_size("1 furlong"), std::runtime_error);
}

TEST(Config, RoundTrip) {
  lu::Config cfg;
  cfg.set("s", "k", "v");
  cfg.set("s", "n", "42");
  const auto parsed = lu::Config::parse(cfg.to_string());
  EXPECT_EQ(parsed.get_string("s", "k"), "v");
  EXPECT_EQ(parsed.get_int("s", "n"), 42);
}

// ---------------------------------------------------------------- table ----

TEST(Table, RendersAlignedCells) {
  lu::Table t({"Task Phase", "Time (h)"});
  t.row({"Task CPU Time", "171036"});
  t.row({"WQ Stage In", "22056"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Task CPU Time"), std::string::npos);
  EXPECT_NE(s.find("| Task Phase"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, BarScaling) {
  EXPECT_EQ(lu::bar(5.0, 10.0, 10).size(), 5u);
  EXPECT_EQ(lu::bar(20.0, 10.0, 10).size(), 10u);  // clamped
  EXPECT_TRUE(lu::bar(0.0, 10.0, 10).empty());
  EXPECT_TRUE(lu::bar(1.0, 0.0, 10).empty());
}

// -------------------------------------------------------------- channel ----

TEST(Channel, SendReceiveOrder) {
  lu::Channel<int> ch;
  ch.send(1);
  ch.send(2);
  ch.send(3);
  EXPECT_EQ(ch.receive(), 1);
  EXPECT_EQ(ch.receive(), 2);
  EXPECT_EQ(ch.receive(), 3);
}

TEST(Channel, CloseDrainsThenNullopt) {
  lu::Channel<int> ch;
  ch.send(7);
  ch.close();
  EXPECT_FALSE(ch.send(8));
  EXPECT_EQ(ch.receive(), 7);
  EXPECT_EQ(ch.receive(), std::nullopt);
}

TEST(Channel, BoundedTrySend) {
  lu::Channel<int> ch(2);
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_TRUE(ch.try_send(2));
  EXPECT_FALSE(ch.try_send(3));
  EXPECT_EQ(ch.receive(), 1);
  EXPECT_TRUE(ch.try_send(3));
}

TEST(Channel, CrossThreadTransfer) {
  lu::Channel<int> ch;
  std::atomic<int> sum{0};
  std::thread consumer([&] {
    while (auto v = ch.receive()) sum += *v;
  });
  std::thread producer([&] {
    for (int i = 1; i <= 100; ++i) ch.send(i);
    ch.close();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum.load(), 5050);
}

// ----------------------------------------------------------- threadpool ----

TEST(ThreadPool, ExecutesAllTasks) {
  lu::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitThenSubmitMore) {
  lu::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, RejectsAfterShutdown) {
  lu::ThreadPool pool(2);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}
