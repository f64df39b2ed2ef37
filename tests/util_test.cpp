#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "selfheal/util/epoch_map.hpp"
#include "selfheal/util/fault_schedule.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/rng.hpp"
#include "selfheal/util/small_vector.hpp"
#include "selfheal/util/stats.hpp"
#include "selfheal/util/table.hpp"
#include "selfheal/util/text_reader.hpp"

namespace {

using namespace selfheal::util;

TEST(Splitmix, IsDeterministic) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(Mix64, OrderMatters) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(2);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, BelowNeverReachesBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(4);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) ++seen[rng.below(5)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= (v == -2);
    hit_hi |= (v == 2);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.005);
}

// An epoch map against a std::map model: inserts past several table
// doublings, lookups of present and absent keys, and a reset per epoch.
TEST(EpochMap, MatchesAMapModelAcrossGrowthAndEpochs) {
  EpochMap map;
  EXPECT_EQ(map.find(3), nullptr);
  Rng rng(12);
  for (int epoch = 0; epoch < 50; ++epoch) {
    map.reset();
    EXPECT_EQ(map.size(), 0u);
    std::map<std::int32_t, std::uint32_t> model;
    const auto keys = 1 + rng.below(400);
    for (std::uint64_t i = 0; i < keys; ++i) {
      const auto key = static_cast<std::int32_t>(rng.below(1000)) - 10;
      const auto value = static_cast<std::uint32_t>(rng.below(1u << 20));
      const auto [it, inserted] = model.emplace(key, value);
      auto& held = map.get_or_insert(key, value);
      ASSERT_EQ(held, it->second);
      if (!inserted) held = it->second = value;  // overwrite through the reference
    }
    ASSERT_EQ(map.size(), model.size());
    for (std::int32_t key = -10; key < 990; ++key) {
      const auto* found = map.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end()) << "key " << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "key " << key;
      }
    }
  }
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Histogram, BucketsAndOutOfRangeCounts) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // below lo: counted as underflow, not clamped
  h.add(100.0);   // at/above hi: counted as overflow
  h.add(10.0);    // hi itself is exclusive
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.in_range(), 2u);
  EXPECT_EQ(h.total(), 5u);
  const std::string chart = h.render();
  EXPECT_NE(chart.find("(-inf, 0)"), std::string::npos);
  EXPECT_NE(chart.find("[10, +inf)"), std::string::npos);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add("alpha", 1.5);
  t.add("b", 22);
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvRenderingAndQuoting) {
  Table t({"name", "note"});
  t.add("plain", 1.5);
  t.add("with,comma", "say \"hi\"");
  const auto csv = t.render_csv();
  EXPECT_NE(csv.find("name,note\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1.5\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\",\"say \"\"hi\"\"\"\n"), std::string::npos);
}

TEST(Table, AppendCsvWritesTitledBlocks) {
  const std::string path = ::testing::TempDir() + "selfheal_table_test.csv";
  std::remove(path.c_str());
  Table t({"x", "y"});
  t.add(1, 2);
  t.append_csv(path, "block one");
  t.append_csv(path, "block two");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto text = buffer.str();
  EXPECT_NE(text.find("# block one\nx,y\n1,2\n"), std::string::npos);
  EXPECT_NE(text.find("# block two"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Flags, ParsesAllForms) {
  // Note: "--name value" greedily consumes the next non-flag token, so a
  // bare boolean flag must come last or use --name=true.
  const char* argv[] = {"prog", "--alpha=3.5", "--beta", "7", "pos1", "--gamma"};
  Flags flags(6, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0), 3.5);
  EXPECT_EQ(flags.get_count("beta", 0), 7u);
  EXPECT_TRUE(flags.get_bool("gamma", false));
  EXPECT_FALSE(flags.has("delta"));
  EXPECT_EQ(flags.get("delta", "dft"), "dft");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_NO_THROW(flags.done());
}

TEST(Flags, RefusesBadValuesAndFlagsNothingReads) {
  const auto parse = [](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return Flags(static_cast<int>(args.size()), args.data());
  };
  EXPECT_EQ(parse({"--x=1"}).get_count("x", 0), 1u);
  EXPECT_EQ(parse({"--x", "1"}).get_count("x", 0), 1u);
  for (const char* bad : {"abc", "12x", "1e3", "-1", "+1", ""}) {
    EXPECT_THROW((void)parse({"--x", bad}).get_count("x", 0), std::invalid_argument)
        << bad;
  }
  EXPECT_DOUBLE_EQ(parse({"--x", "-1.5"}).get_double("x", 0), -1.5);
  EXPECT_DOUBLE_EQ(parse({"--x=1e3"}).get_double("x", 0), 1000.0);
  for (const char* bad : {"nan", "inf", "-inf", "abc", "1.5x", ""}) {
    EXPECT_THROW((void)parse({"--x", bad}).get_double("x", 0), std::invalid_argument)
        << bad;
  }
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
  EXPECT_THROW((void)parse({"--x", "maybe"}).get_bool("x", true), std::invalid_argument);

  // A flag no call has read is refused; reading it, in any form, counts.
  const auto flags = parse({"--lambda", "-1", "--threads", "2"});
  EXPECT_EQ(flags.get_count("threads", 0), 2u);
  EXPECT_THROW(flags.done(), std::invalid_argument);
  EXPECT_TRUE(flags.has("lambda"));
  EXPECT_NO_THROW(flags.done());
}

TEST(FaultSchedule, DrawsAreStatelessAndDeterministic) {
  // Same (stream, op) in, same draw out -- no generator state anywhere.
  EXPECT_DOUBLE_EQ(schedule_uniform(42, 7), schedule_uniform(42, 7));
  EXPECT_EQ(schedule_index(42, 7, 10), schedule_index(42, 7, 10));
  // Reproduces the underlying hash construction exactly (the refactor
  // of the storage/chaos fault plans rides on this identity).
  EXPECT_DOUBLE_EQ(schedule_uniform(42, 7),
                   hash_uniform(splitmix64(mix64(42, 7))));
  // Distinct streams (salts) decouple decisions about the same op.
  EXPECT_NE(schedule_uniform(42, 7), schedule_uniform(43, 7));
  for (std::uint64_t op = 0; op < 256; ++op) {
    const double u = schedule_uniform(1, op);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(schedule_index(1, op, 5), 5u);
  }
  EXPECT_EQ(schedule_index(1, 2, 0), 0u);
}

TEST(FaultSchedule, SubtractiveCascadeIsExclusiveAndStable) {
  // One sample, mutually exclusive outcomes at their nominal rates.
  {
    ScheduleDraw draw(0.05);
    EXPECT_TRUE(draw.fires(0.1));
  }
  {
    ScheduleDraw draw(0.15);
    EXPECT_FALSE(draw.fires(0.1));  // past the first band...
    EXPECT_TRUE(draw.fires(0.1));   // ...lands in the second
  }
  {
    // Adding a later outcome never changes an earlier decision.
    ScheduleDraw a(0.25);
    ScheduleDraw b(0.25);
    EXPECT_EQ(a.fires(0.1), b.fires(0.1));
    EXPECT_EQ(a.fires(0.1), b.fires(0.1));
    EXPECT_FALSE(b.fires(0.04));  // 0.25 - 0.2 = 0.05 >= 0.04
  }
}

TEST(SmallVector, SpillsPastInlineCapacityAndCopiesByValue) {
  selfheal::util::SmallVector<std::int64_t, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.capacity(), 2u);  // still inline
  v.push_back(3);               // spills to the heap
  EXPECT_GT(v.capacity(), 2u);
  EXPECT_EQ(std::vector<std::int64_t>(v.begin(), v.end()),
            (std::vector<std::int64_t>{1, 2, 3}));

  auto copy = v;
  copy[0] = 9;
  EXPECT_EQ(v[0], 1);  // deep copy
  EXPECT_FALSE(copy == v);

  auto moved = std::move(copy);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[0], 9);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)

  selfheal::util::SmallVector<std::int64_t, 2> small;
  small.push_back(5);
  auto small_moved = std::move(small);  // inline contents move too
  EXPECT_EQ(small_moved.size(), 1u);
  EXPECT_EQ(small_moved[0], 5);

  const std::vector<std::int64_t> source{4, 5};
  v.assign(source);  // shrinks the contents, keeps the heap block
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 5);
  const auto& alias = v;
  v = alias;  // self-assignment is a no-op
  EXPECT_EQ(v.size(), 2u);

  selfheal::util::SmallVector<std::int64_t, 2> same;
  same.assign(source);
  EXPECT_TRUE(v == same);  // heap-held and inline contents compare by value
}

TEST(TextReader, IntegersAreWholeTokensWithoutPlusOrUnsignedSign) {
  EXPECT_EQ(parse_int<std::uint64_t>("42"), 42u);
  EXPECT_EQ(parse_int<int>("-7"), -7);
  EXPECT_EQ(parse_int<std::uint32_t>("ff", 16), 255u);
  EXPECT_FALSE(parse_int<std::uint64_t>("-1"));
  EXPECT_FALSE(parse_int<int>("+1"));
  EXPECT_FALSE(parse_int<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_int<std::int32_t>("2147483648"));
  EXPECT_FALSE(parse_int<int>("12x"));
  EXPECT_FALSE(parse_int<int>(" 1"));
  EXPECT_FALSE(parse_int<int>(""));
}

TEST(TextReader, SplitsLinesAsGetlineAndTokensOnCLocaleBlanks) {
  TextReader in("a\tb\v c\r\n\nlast", "ctx", /*numbered=*/true);
  auto line = in.tokens();
  EXPECT_EQ(line.next(), "a");
  EXPECT_EQ(line.next(), "b");
  EXPECT_EQ(line.next(), "c");
  EXPECT_EQ(line.next(), "");
  EXPECT_EQ(in.line(), "");
  EXPECT_EQ(in.line(), "last");  // a last line may lack its newline
  EXPECT_EQ(in.line_no(), 3u);
  EXPECT_TRUE(in.at_end());
  try {
    (void)in.line();
    FAIL() << "read past the end";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ctx line 3: unexpected end of input");
  }
}

TEST(TextReader, RefusalsNameContextAndLine) {
  const auto refusal = [](const std::function<void()>& read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(refusal([] {
              TextReader in("x 1 2\n", "hdr");
              auto line = in.tokens();
              line.expect("x");
              (void)line.integer<int>("first");
              line.done();
            }),
            "hdr: trailing token '2'");
  EXPECT_EQ(refusal([] {
              TextReader in("ok\nn -3\n", "s", true);
              (void)in.line();
              auto line = in.tokens();
              line.expect("n");
              (void)line.integer<std::size_t>("count");
            }),
            "s line 2: bad count '-3'");
  EXPECT_EQ(refusal([] {
              TextReader in("short\nthis line is long\n", "s", true, 8);
              (void)in.line();
              (void)in.line();
            }),
            "s line 2: line too long");
  EXPECT_EQ(refusal([] { (void)TextReader("no newline", "env").header(); }),
            "env: missing header line");
}

TEST(TextReader, EnvelopeBodiesRoundTripArbitraryBytes) {
  const std::string body("two\nlines\0and a NUL", 20);
  std::string out;
  append_envelope(out, body, "blob", std::uint64_t{7}, -1);
  EXPECT_EQ(out.substr(0, out.find('\n')), "blob 7 -1 20");
  out += "rest";
  TextReader in(out, "env");
  auto head = in.header();
  head.expect("blob");
  EXPECT_EQ(head.integer<std::uint64_t>("slot"), 7u);
  EXPECT_EQ(head.integer<int>("node"), -1);
  EXPECT_EQ(head.body("body"), body);
  EXPECT_EQ(in.take(4, "rest"), "rest");
  in.done();

  TextReader short_body("blob 5\nabc", "env");
  auto short_head = short_body.header();
  short_head.expect("blob");
  EXPECT_THROW((void)short_head.body("body"), std::invalid_argument);
  TextReader extra("blob 1\nab", "env");
  auto extra_head = extra.header();
  extra_head.expect("blob");
  (void)extra_head.body("body");
  EXPECT_THROW(extra.done(), std::invalid_argument);
}

}  // namespace
