// Tests for CSV, CLI parsing, logging, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <sstream>
#include <thread>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner::util {
namespace {

// ------------------------------------------------------------------- CSV --

TEST(Csv, PlainRow) {
  std::ostringstream out;
  CsvWriter w{out};
  w.write_row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, QuotesSeparatorsQuotesAndNewlines) {
  std::ostringstream out;
  CsvWriter w{out};
  w.write_row({"a,b", "say \"hi\"", "line1\nline2"});
  EXPECT_EQ(out.str(), "\"a,b\",\"say \"\"hi\"\"\",\"line1\nline2\"\n");
}

TEST(Csv, ParseSimpleLine) {
  const auto fields = parse_csv_line("a,b,,d");
  ASSERT_EQ(fields.size(), 4U);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "d");
}

TEST(Csv, ParseQuotedLine) {
  const auto fields = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\"");
  ASSERT_EQ(fields.size(), 2U);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "say \"hi\"");
}

TEST(Csv, ParseUnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv_line("\"oops"), std::runtime_error);
}

TEST(Csv, WriteParseRoundTrip) {
  const std::vector<std::string> original{"plain", "with,comma", "q\"uote",
                                          "", "multi\nline"};
  std::ostringstream out;
  CsvWriter w{out};
  w.write_row(original);
  // Strip the trailing newline; multi-line fields keep internal newlines.
  std::string line = out.str();
  line.pop_back();
  EXPECT_EQ(parse_csv_line(line), original);
}

TEST(Csv, ReadCsvSkipsEmptyLines) {
  std::istringstream in{"a,b\n\nc,d\n\r\n"};
  const auto rows = read_csv(in);
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(Csv, DoubleFieldRoundTrips) {
  const double value = 0.12345678901234567;
  EXPECT_EQ(std::stod(CsvWriter::field(value)), value);
}

TEST(Csv, ReadCsvQuotedFieldSpansLines) {
  // CsvWriter quotes embedded newlines; read_csv must reassemble the
  // record instead of treating each physical line as a row.
  std::ostringstream out;
  CsvWriter w{out};
  w.write_row({"a", "multi\nline \"x\",y", "z"});
  w.write_row({"1", "2", "3"});
  std::istringstream in{out.str()};
  const auto rows = read_csv(in);
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0][1], "multi\nline \"x\",y");
  EXPECT_EQ(rows[1][2], "3");
}

TEST(Csv, ReadCsvUnterminatedQuoteAtEofThrows) {
  std::istringstream in{"a,\"unterminated\nstill open"};
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

// ------------------------------------------------------------------- CLI --

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7", "--gamma"};
  CliArgs args{5, argv};
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 7);
  EXPECT_TRUE(args.has("gamma"));
  EXPECT_TRUE(args.get_bool("gamma", false));
  EXPECT_FALSE(args.has("delta"));
  EXPECT_EQ(args.get_int("delta", 9), 9);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "one", "--x=1", "two"};
  CliArgs args{4, argv};
  ASSERT_EQ(args.positional().size(), 2U);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

TEST(Cli, DoubleAndStringAccessors) {
  const char* argv[] = {"prog", "--rate=0.25", "--name=fleet"};
  CliArgs args{3, argv};
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 0.25);
  EXPECT_EQ(args.get("name", ""), "fleet");
}

TEST(Cli, BoolParsing) {
  const char* argv[] = {"prog", "--on=true", "--off=false", "--bad=zzz"};
  CliArgs args{4, argv};
  EXPECT_TRUE(args.get_bool("on", false));
  EXPECT_FALSE(args.get_bool("off", true));
  EXPECT_THROW((void)args.get_bool("bad", false), std::invalid_argument);
}

// ------------------------------------------------------------------- Log --

TEST(Log, RespectsLevelAndSink) {
  std::ostringstream sink;
  Log::set_sink(&sink);
  Log::set_level(LogLevel::kWarn);
  RR_LOG_INFO("test") << "hidden";
  RR_LOG_WARN("test") << "visible " << 42;
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kWarn);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible 42"), std::string::npos);
  EXPECT_NE(sink.str().find("[test]"), std::string::npos);
}

TEST(Log, SetSinkIsSafeMidRun) {
  // Emission and reconfiguration hold the same mutex, so swapping the sink
  // while another thread logs must neither tear output nor touch a stale
  // stream. TSan/ASan builds verify the absence of a race.
  Log::set_level(LogLevel::kInfo);
  std::ostringstream a;
  std::ostringstream b;
  Log::set_sink(&a);
  std::atomic<bool> stop{false};
  std::thread writer{[&] {
    while (!stop.load()) {
      RR_LOG_INFO("race") << "tick";
    }
  }};
  for (int i = 0; i < 500; ++i) {
    Log::set_sink(i % 2 == 0 ? &b : &a);
  }
  stop.store(true);
  writer.join();
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kWarn);
  // Every emitted line landed whole in one of the two sinks.
  for (const std::string& text : {a.str(), b.str()}) {
    std::istringstream lines{text};
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      EXPECT_NE(line.find("tick"), std::string::npos) << line;
    }
  }
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool{2};
  int count = 0;
  pool.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool{3};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 57) {
                                     throw std::runtime_error{"boom"};
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, PendingAndBusyReflectQueueState) {
  ThreadPool pool{2};
  EXPECT_EQ(pool.size(), 2U);
  EXPECT_EQ(pool.busy(), 0U);
  EXPECT_EQ(pool.pending(), 0U);

  auto wait_until = [](auto pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{30};
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return pred();
  };

  // Saturate both workers with submitted tasks that block until released.
  std::atomic<bool> release{false};
  std::atomic<int> blockers_done{0};
  for (int b = 0; b < 2; ++b) {
    pool.submit([&] {
      while (!release.load()) std::this_thread::yield();
      blockers_done.fetch_add(1);
    });
  }
  ASSERT_TRUE(wait_until([&] { return pool.busy() == 2; }));
  EXPECT_EQ(pool.pending(), 0U);

  // Further tasks now have to queue behind them.
  std::atomic<int> queued_done{0};
  for (int q = 0; q < 2; ++q) pool.submit([&] { queued_done.fetch_add(1); });
  EXPECT_EQ(pool.pending(), 2U);

  // Helping join: with every worker blocked, a parallel_for completes on
  // its caller alone, and withdraws the shard task no worker started.
  std::atomic<int> quick_done{0};
  pool.parallel_for(8, [&](std::size_t) { quick_done.fetch_add(1); });
  EXPECT_EQ(quick_done.load(), 8);
  EXPECT_EQ(blockers_done.load(), 0);
  EXPECT_EQ(pool.busy(), 2U);
  EXPECT_EQ(pool.pending(), 2U);

  release.store(true);
  ASSERT_TRUE(
      wait_until([&] { return pool.busy() == 0 && pool.pending() == 0; }));
  EXPECT_EQ(blockers_done.load(), 2);
  EXPECT_EQ(queued_done.load(), 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool{2};
  std::atomic<long> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(100, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 10L * (99 * 100 / 2));
}

}  // namespace
}  // namespace roadrunner::util
