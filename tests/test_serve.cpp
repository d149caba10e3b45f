#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/contract.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "campaign/ledger.hpp"
#include "campaign/registry.hpp"
#include "graph/dual_builders.hpp"
#include "obs/heartbeat.hpp"
#include "serve/checkpoint.hpp"
#include "serve/coordinator.hpp"
#include "serve/faultline.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"

namespace dualrad::serve {
namespace {

using campaign::CampaignConfig;
using campaign::CampaignResult;
using campaign::Scenario;
using campaign::TrialRow;

Scenario cheap_scenario(const std::string& name) {
  Scenario s;
  s.name = name;
  s.network = [] { return duals::layered_complete_gprime(4, 3); };
  s.algorithm = [](const DualGraph& net) {
    return make_harmonic_factory(net.node_count(), {.eps = 0.2});
  };
  s.adversary = campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.4);
  s.max_rounds = 500'000;
  s.trials = 4;
  return s;
}

std::vector<Scenario> cheap_campaign() {
  std::vector<Scenario> scenarios;
  scenarios.push_back(cheap_scenario("serve/harmonic/bernoulli"));
  Scenario greedy = cheap_scenario("serve/harmonic/greedy");
  greedy.adversary = campaign::make_adversary_factory<GreedyBlockerAdversary>();
  scenarios.push_back(greedy);
  Scenario rr = cheap_scenario("serve/round-robin/benign");
  rr.algorithm = [](const DualGraph& net) {
    return make_round_robin_factory(net.node_count());
  };
  rr.adversary = campaign::make_adversary_factory<BenignAdversary>();
  rr.trials = 2;
  scenarios.push_back(rr);
  return scenarios;
}

/// RAII temp file path (the file itself may or may not be created).
struct TempPath {
  std::string path;
  explicit TempPath(const char* tag) {
    path = testing::TempDir() + "dualrad_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  ~TempPath() { std::remove(path.c_str()); }
};

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Write `rows` to `path` as a journal (replacing any previous file).
void write_journal(const std::string& path, const std::vector<TrialRow>& rows) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const TrialRow& row : rows) out << journal_line(row);
}

/// The batch-engine reference output the serve stack must reproduce
/// byte-for-byte.
[[nodiscard]] std::pair<std::string, std::string> batch_reference(
    const std::vector<Scenario>& scenarios, std::uint64_t seed) {
  CampaignConfig config;
  config.master_seed = seed;
  config.threads = 2;
  const CampaignResult result = run_campaign(scenarios, config);
  return {campaign::trials_to_jsonl(result.trials),
          campaign::summaries_to_jsonl(result.summaries)};
}

// --- wire framing ------------------------------------------------------------

TEST(ServeWire, Crc32MatchesIeeeVectors) {
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("\0", 1)), 0xD202EF8Du);
}

TEST(ServeWire, FrameRoundTripsThroughArbitraryChunking) {
  const std::vector<std::string> payloads = {
      "{\"type\":\"hello\"}", "", std::string(10'000, 'x'),
      std::string("\x01\xff\n{}", 5)};
  std::string stream;
  for (const std::string& p : payloads) stream += encode_frame(p);

  for (std::size_t chunk = 1; chunk <= 7; chunk += 3) {
    FrameReader reader;
    std::vector<std::string> decoded;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      reader.feed(stream.substr(at, chunk));
      while (auto payload = reader.next()) decoded.push_back(*payload);
    }
    EXPECT_EQ(decoded, payloads) << "chunk size " << chunk;
    EXPECT_FALSE(reader.corrupt());
  }
}

TEST(ServeWire, CorruptedPayloadPoisonsTheReader) {
  std::string stream = encode_frame("{\"type\":\"lease\",\"worker\":\"w0\"}");
  stream[stream.size() / 2] ^= 0x20;  // flip a payload bit
  stream += encode_frame("{\"type\":\"status\"}");  // valid frame behind it

  FrameReader reader;
  reader.feed(stream);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
  // Sticky: the valid frame after the corruption is never surfaced.
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ServeWire, OversizedLengthPoisonsTheReader) {
  std::string stream = "\xff\xff\xff\xff";  // 4 GiB length prefix
  stream.append(8, '\0');
  FrameReader reader;
  reader.feed(stream);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
}

// --- checkpoint journal ------------------------------------------------------

[[nodiscard]] TrialRow sample_row(std::uint32_t trial, std::uint64_t seed) {
  TrialRow row;
  row.scenario = "serve/journal/demo";
  row.trial = trial;
  row.seed = seed;
  row.completed = true;
  row.rounds = 10 + static_cast<Round>(trial);
  row.rounds_executed = row.rounds;
  row.sends = 100;
  row.collisions = 7;
  return row;
}

TEST(ServeCheckpoint, JournalRoundTripsAndDropsOnlyTheTornTail) {
  const TrialRow a = sample_row(0, 11), b = sample_row(1, 22);
  const std::string text = journal_line(a) + journal_line(b);
  const JournalLoad clean = parse_journal(text);
  EXPECT_EQ(clean.rows.size(), 2u);
  EXPECT_EQ(clean.dropped_torn_tail, 0u);
  EXPECT_EQ(clean.rows[0].seed, 11u);
  EXPECT_EQ(clean.rows[1].rounds, 11);

  // A torn final line — half a journal_line — is dropped and reported.
  const std::string torn_line = journal_line(sample_row(2, 33));
  const JournalLoad torn =
      parse_journal(text + torn_line.substr(0, torn_line.size() / 2));
  EXPECT_EQ(torn.rows.size(), 2u);
  EXPECT_EQ(torn.dropped_torn_tail, 1u);

  // The same damage mid-file is corruption, not a torn tail.
  EXPECT_THROW(
      parse_journal(torn_line.substr(0, torn_line.size() / 2) + "\n" + text),
      std::invalid_argument);
}

TEST(ServeCheckpoint, JournalDedupesReplaysAndRejectsConflicts) {
  const TrialRow a = sample_row(0, 11);
  const JournalLoad duped = parse_journal(journal_line(a) + journal_line(a));
  EXPECT_EQ(duped.rows.size(), 1u);
  EXPECT_EQ(duped.duplicates, 1u);

  TrialRow conflicting = a;
  conflicting.rounds = 999;  // same (scenario, trial), different bytes
  EXPECT_THROW(parse_journal(journal_line(a) + journal_line(conflicting)),
               std::invalid_argument);
}

TEST(ServeCheckpoint, WriterAppendsLoadableLines) {
  const TempPath journal("journal");
  {
    JournalWriter writer;
    writer.open(journal.path);
    writer.append(sample_row(0, 11));
    writer.append(sample_row(1, 22));
  }
  {
    JournalWriter writer;  // reopen appends, never truncates
    writer.open(journal.path);
    writer.append(sample_row(2, 33));
  }
  const JournalLoad load = load_journal(journal.path);
  EXPECT_EQ(load.rows.size(), 3u);
  EXPECT_EQ(load.rows[2].trial, 2u);
}

TEST(ServeCheckpoint, ReopenCutsATornTailBeforeAppending) {
  // A crash left a fragment after the last whole line. A writer opened
  // without a resume must not glue its first row onto it; the fragment may
  // span several read blocks, or be the whole file.
  const std::string torn = journal_line(sample_row(1, 22));
  for (const std::string& tail :
       {torn.substr(0, torn.size() / 2), std::string(9000, 'x')}) {
    for (const bool whole_line_first : {true, false}) {
      const TempPath journal("reopen_torn");
      {
        std::ofstream out(journal.path, std::ios::binary);
        if (whole_line_first) out << journal_line(sample_row(0, 11));
        out << tail;
      }
      {
        JournalWriter writer;
        writer.open(journal.path);
        writer.append(sample_row(2, 33));
      }
      const JournalLoad load = load_journal(journal.path);
      EXPECT_EQ(load.dropped_torn_tail, 0u);
      ASSERT_EQ(load.rows.size(), whole_line_first ? 2u : 1u);
      EXPECT_EQ(load.rows.back().trial, 2u);
      if (whole_line_first) {
        EXPECT_EQ(load.rows.front().trial, 0u);
      }
    }
  }
}

// --- export parsers under torn writes ---------------------------------------

TEST(ServeCheckpoint, ExportParsersFailLoudlyOnTornAndInterleavedLines) {
  CampaignConfig config;
  config.master_seed = 5;
  const CampaignResult result =
      run_campaign({cheap_scenario("serve/torn/demo")}, config);
  const std::string good = campaign::trials_to_jsonl(result.trials);
  ASSERT_EQ(campaign::trials_from_jsonl(good).size(), result.trials.size());

  // Truncated final line: must throw, never silently drop the row.
  EXPECT_THROW((void)campaign::trials_from_jsonl(
                   good.substr(0, good.size() - good.size() / 3)),
               std::invalid_argument);

  // Two writers' torn lines interleaved on one line: key-based scanning
  // could pick fields from either row, so the parser must refuse.
  const std::size_t first_nl = good.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  std::string interleaved = good;
  interleaved.erase(first_nl, 1);  // "{...}{...}" on one line
  EXPECT_THROW((void)campaign::trials_from_jsonl(interleaved),
               std::invalid_argument);

  // Same guards on the telemetry parser.
  EXPECT_THROW((void)campaign::telemetry_from_jsonl(
                   "{\"scenario\":\"a\",\"trial\":0}{\"scenario\":\"b\"\n"),
               std::invalid_argument);
}

// --- TrialExecutor -----------------------------------------------------------

TEST(ServeExecutor, MatchesTheBatchEnginePerTrial) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  CampaignConfig config;
  config.master_seed = 77;
  const CampaignResult batch = run_campaign(scenarios, config);

  std::vector<TrialRow> rows;
  for (const Scenario& s : scenarios) {
    const campaign::TrialExecutor executor(s, 77);
    for (std::uint32_t t = 0; t < s.trials; ++t) {
      rows.push_back(executor.run(t).row);
    }
  }
  EXPECT_EQ(campaign::trials_to_jsonl(rows),
            campaign::trials_to_jsonl(batch.trials));
}

// --- coordinator -------------------------------------------------------------

/// Drain a coordinator in-process: lease units and run them on a
/// TrialExecutor, committing every row. Exercises the library API without
/// sockets.
void drain(Coordinator& coordinator, const std::vector<Scenario>& scenarios,
           const std::string& worker) {
  std::map<std::string, const Scenario*> by_name;
  for (const Scenario& s : scenarios) by_name.emplace(s.name, &s);
  while (!coordinator.done()) {
    const std::optional<JobSpec> job = coordinator.lease(worker);
    ASSERT_TRUE(job.has_value()) << "units leased out but campaign not done";
    const campaign::TrialExecutor executor(*by_name.at(job->scenario),
                                           job->master_seed);
    for (std::uint32_t t = job->trial_begin; t < job->trial_end; ++t) {
      (void)coordinator.commit(executor.run(t).row);
    }
  }
}

TEST(ServeCoordinator, FinalizeIsByteIdenticalToBatchRun) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 123);

  for (const std::uint32_t unit_trials : {1u, 3u, 0u}) {
    Coordinator::Config config;
    config.master_seed = 123;
    config.unit_trials = unit_trials;
    Coordinator coordinator(config);
    coordinator.load_campaign(scenarios);
    drain(coordinator, scenarios, "w0");
    const CampaignResult result = coordinator.finalize();
    EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials);
    EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries);
  }
}

TEST(ServeCoordinator, ExpiredLeasesAreReissuedAndReplaysDedupe) {
  const std::vector<Scenario> scenarios = {cheap_scenario("serve/lease/one")};
  Coordinator::Config config;
  config.master_seed = 9;
  config.unit_trials = 2;
  config.lease_secs = 0.05;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);

  // Worker A leases a unit, commits ONE of its two trials, then dies.
  const std::optional<JobSpec> first = coordinator.lease("a");
  ASSERT_TRUE(first.has_value());
  const campaign::TrialExecutor executor(scenarios[0], 9);
  EXPECT_EQ(coordinator.commit(executor.run(first->trial_begin).row),
            Coordinator::Commit::Accepted);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  // The sweep requeues the unit for worker B...
  const std::optional<JobSpec> second = coordinator.lease("b");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->unit, first->unit);
  // ...whose re-run of the committed trial dedupes, and whose fresh trial
  // commits.
  EXPECT_EQ(coordinator.commit(executor.run(second->trial_begin).row),
            Coordinator::Commit::Duplicate);
  EXPECT_EQ(coordinator.commit(executor.run(second->trial_begin + 1).row),
            Coordinator::Commit::Accepted);
  EXPECT_EQ(coordinator.status().units_done, 1u);
}

TEST(ServeCoordinator, RejectsConflictingAndForeignCommits) {
  const std::vector<Scenario> scenarios = {cheap_scenario("serve/strict/one")};
  Coordinator::Config config;
  config.master_seed = 9;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);
  (void)coordinator.lease("w");

  const campaign::TrialExecutor executor(scenarios[0], 9);
  const TrialRow row = executor.run(0).row;
  EXPECT_EQ(coordinator.commit(row), Coordinator::Commit::Accepted);

  TrialRow conflicting = row;
  conflicting.sends += 1;  // different bytes for the same (scenario, trial)
  EXPECT_THROW((void)coordinator.commit(conflicting), std::runtime_error);

  TrialRow wrong_seed = executor.run(1).row;
  wrong_seed.seed ^= 1;  // not the derived trial seed
  EXPECT_THROW((void)coordinator.commit(wrong_seed), std::invalid_argument);

  TrialRow unknown = row;
  unknown.scenario = "serve/strict/other";
  EXPECT_THROW((void)coordinator.commit(unknown), std::invalid_argument);
}

TEST(ServeCoordinator, ResumeSkipsJournaledTrialsAndStaysByteIdentical) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 321);

  // First run journals everything, then "crashes" after 4 commits: keep a
  // 4-line prefix plus a torn partial line, as a real crash would leave.
  const TempPath journal("resume");
  {
    Coordinator::Config config;
    config.master_seed = 321;
    config.journal_path = journal.path;
    Coordinator coordinator(config);
    coordinator.load_campaign(scenarios);
    drain(coordinator, scenarios, "w0");
  }
  const std::string full = read_file(journal.path);
  std::size_t cut = 0;
  for (int lines = 0; lines < 4; ++lines) cut = full.find('\n', cut) + 1;
  std::ofstream(journal.path, std::ios::binary | std::ios::trunc)
      << full.substr(0, cut) << full.substr(cut, 20);

  Coordinator::Config config;
  config.master_seed = 321;
  config.journal_path = journal.path;
  config.resume = true;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);
  EXPECT_EQ(coordinator.status().resumed, 4u);
  EXPECT_EQ(coordinator.status().committed, 4u);
  drain(coordinator, scenarios, "w1");

  const CampaignResult result = coordinator.finalize();
  EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries);

  // The continued journal alone now reconstructs the whole campaign.
  EXPECT_EQ(load_journal(journal.path).rows.size(), result.trials.size());
}

// --- socket stack: server + worker ------------------------------------------

/// In-process "network": every connect() call makes a fresh socketpair and a
/// server thread for its far end — exactly the per-connection model the
/// accept loop provides, minus the listening socket.
class LoopbackNet {
 public:
  explicit LoopbackNet(Server& server) : server_(server) {}

  ~LoopbackNet() {
    server_.request_stop();
    for (std::thread& t : handlers_) t.join();
  }

  [[nodiscard]] std::function<int()> connector() {
    return [this] {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return -1;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        handlers_.emplace_back(
            [this, fd = sv[1]] { server_.handle_connection(fd); });
      }
      return sv[0];
    };
  }

 private:
  Server& server_;
  std::mutex mutex_;
  std::vector<std::thread> handlers_;
};

TEST(ServeSocket, WorkerPoolsOfOneTwoFourAreByteIdentical) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 2024);

  for (const unsigned workers : {1u, 2u, 4u}) {
    Coordinator::Config config;
    config.master_seed = 2024;
    config.unit_trials = 1;  // maximum contention across the pool
    Coordinator coordinator(config);
    coordinator.load_campaign(scenarios);
    Server server(coordinator, {});
    LoopbackNet net(server);

    std::vector<std::thread> pool;
    std::vector<WorkerStats> stats(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        WorkerOptions options;
        options.poll = std::chrono::milliseconds(10);
        stats[w] = run_worker(net.connector(), scenarios, options);
      });
    }
    for (std::thread& t : pool) t.join();

    std::size_t trials_run = 0;
    for (const WorkerStats& s : stats) {
      EXPECT_FALSE(s.stopped);
      trials_run += s.trials;
    }
    EXPECT_GE(trials_run, coordinator.status().total_trials);

    const CampaignResult result = coordinator.finalize();
    EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials)
        << workers << " workers";
    EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries)
        << workers << " workers";
  }
}

TEST(ServeSocket, StoppedWorkerIsReplacedWithoutChangingTheBytes) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 55);

  Coordinator::Config config;
  config.master_seed = 55;
  config.unit_trials = 2;
  config.lease_secs = 0.2;  // fast reissue of the dead worker's unit
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);
  Server server(coordinator, {});
  LoopbackNet net(server);

  // Worker A runs a slowed copy of the catalogue — a sleep in the adversary
  // factory delays each trial without changing its bytes — so the stop
  // (cooperative, standing in for kill -9, which the CI smoke test does on
  // real processes) deterministically lands mid-campaign.
  std::vector<Scenario> slowed = scenarios;
  for (Scenario& s : slowed) {
    s.adversary = [inner = s.adversary](std::uint64_t seed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      return inner(seed);
    };
  }
  std::atomic<bool> kill_a{false};
  std::thread a([&] {
    WorkerOptions options;
    options.poll = std::chrono::milliseconds(10);
    options.stop = &kill_a;
    (void)run_worker(net.connector(), slowed, options);
  });
  while (coordinator.status().committed == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_a.store(true);
  a.join();
  ASSERT_FALSE(coordinator.done());

  WorkerOptions options;
  options.poll = std::chrono::milliseconds(10);
  const WorkerStats b_stats = run_worker(net.connector(), scenarios, options);
  EXPECT_FALSE(b_stats.stopped);

  const CampaignResult result = coordinator.finalize();
  EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries);
}

TEST(ServeSocket, SubmitAndStatusDriveAnIdleCoordinator) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  campaign::ScenarioRegistry registry;
  for (const Scenario& s : scenarios) registry.add(s);

  Coordinator::Config config;
  config.unit_trials = 2;
  Coordinator coordinator(config);  // idle: no campaign loaded
  Server::Options server_options;
  server_options.registry = &registry;
  Server server(coordinator, server_options);
  LoopbackNet net(server);

  const auto rpc = [&](const std::string& payload) {
    const int fd = net.connector()();
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(send_frame(fd, payload));
    FrameReader reader;
    bool timed_out = false;
    const std::optional<std::string> reply =
        recv_frame(fd, reader, 2000, &timed_out);
    ::close(fd);
    EXPECT_TRUE(reply.has_value());
    return reply.value_or("");
  };

  EXPECT_NE(rpc("{\"type\":\"status\"}").find("\"loaded\":false"),
            std::string::npos);
  const std::string submitted =
      rpc("{\"type\":\"submit\",\"filter\":\"harmonic\",\"seed\":7}");
  EXPECT_NE(submitted.find("\"type\":\"submitted\""), std::string::npos);
  EXPECT_NE(submitted.find("\"scenarios\":2"), std::string::npos);
  EXPECT_NE(rpc("{\"type\":\"status\"}").find("\"loaded\":true"),
            std::string::npos);
  EXPECT_NE(rpc("{\"type\":\"submit\",\"filter\":\"no-such-scenario\"}")
                .find("\"type\":\"error\""),
            std::string::npos);

  WorkerOptions options;
  options.poll = std::chrono::milliseconds(10);
  const WorkerStats stats = run_worker(net.connector(), scenarios, options);
  EXPECT_EQ(stats.trials, 8u);  // the two harmonic scenarios, 4 trials each
  EXPECT_TRUE(coordinator.done());

  // A spec needs no registry entry: the server parses it, and so does the
  // worker, whose catalogue lacks it too.
  const std::string bad_spec = "adhoc/bridge:n=016/harmonic/greedy/cr4/async";
  EXPECT_NE(rpc("{\"type\":\"submit\",\"filter\":\"" + bad_spec + "\"}")
                .find("bad scenario spec"),
            std::string::npos);
  const std::string spec = "adhoc/bridge:n=16/harmonic/greedy/cr4/async";
  const std::string spec_submitted =
      rpc("{\"type\":\"submit\",\"filter\":\"" + spec + "\",\"trials\":3}");
  EXPECT_NE(spec_submitted.find("\"scenarios\":1"), std::string::npos)
      << spec_submitted;
  EXPECT_EQ(run_worker(net.connector(), scenarios, options).trials, 3u);
  EXPECT_TRUE(coordinator.done());
  const CampaignResult result = coordinator.finalize();
  ASSERT_EQ(result.trials.size(), 3u);
  EXPECT_EQ(result.trials.front().scenario, spec);
}

// Workers parse dispatched specs their catalogue lacks, and commit the rows
// a batch run of the same specs writes.
TEST(ServeSocket, WorkerParsesSpecsMissingFromItsCatalogue) {
  std::vector<Scenario> specs;
  for (const char* spec :
       {"adhoc/grayzone:n=24:seed=7/harmonic/bernoulli:0.5/cr3/sync",
        "adhoc/theorem11:n=17/cms/greedy/cr4/async"}) {
    specs.push_back(campaign::parse_spec(spec));
    specs.back().trials = 6;
  }
  const auto [ref_trials, ref_summaries] = batch_reference(specs, 31);

  Coordinator::Config config;
  config.master_seed = 31;
  config.unit_trials = 2;
  Coordinator coordinator(config);
  coordinator.load_campaign(specs);
  Server server(coordinator, {});
  LoopbackNet net(server);
  const std::vector<Scenario> catalogue = cheap_campaign();
  std::vector<std::thread> pool;
  for (int w = 0; w < 2; ++w) {
    pool.emplace_back([&] {
      WorkerOptions options;
      options.poll = std::chrono::milliseconds(10);
      (void)run_worker(net.connector(), catalogue, options);
    });
  }
  for (std::thread& t : pool) t.join();

  const CampaignResult result = coordinator.finalize();
  EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries);
}

// --- engine cancel + resume --------------------------------------------------

TEST(ServeEngine, CancelStopsBetweenTrialsAndResumeRowsCompleteTheRun) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  CampaignConfig reference_config;
  reference_config.master_seed = 8;
  const CampaignResult reference = run_campaign(scenarios, reference_config);

  // A pre-raised cancel flag stops the run before any trial executes.
  std::atomic<bool> cancel{true};
  CampaignConfig cancelled_config;
  cancelled_config.master_seed = 8;
  cancelled_config.cancel = &cancel;
  const CampaignResult cancelled = run_campaign(scenarios, cancelled_config);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_TRUE(cancelled.summaries.empty());

  // Resume from a journal of half the reference rows: the engine skips them
  // and the merged output is byte-identical to the uninterrupted run.
  const std::vector<TrialRow> half(
      reference.trials.begin(),
      reference.trials.begin() +
          static_cast<std::ptrdiff_t>(reference.trials.size() / 2));
  const TempPath journal("engine_resume");
  write_journal(journal.path, half);
  std::atomic<std::size_t> executed{0};
  CampaignConfig resume_config;
  resume_config.master_seed = 8;
  resume_config.journal_path = journal.path;
  resume_config.resume = true;
  resume_config.observer = [&](const Scenario&, const TrialRow&,
                               const SimResult&) { ++executed; };
  const CampaignResult resumed = run_campaign(scenarios, resume_config);
  EXPECT_EQ(executed.load(), reference.trials.size() - half.size());
  EXPECT_EQ(campaign::trials_to_jsonl(resumed.trials),
            campaign::trials_to_jsonl(reference.trials));
  EXPECT_EQ(campaign::summaries_to_jsonl(resumed.summaries),
            campaign::summaries_to_jsonl(reference.summaries));

  // Rows whose seed does not match the derived stream are rejected.
  std::vector<TrialRow> forged = half;
  forged[0].seed ^= 1;
  const TempPath forged_journal("engine_forged");
  write_journal(forged_journal.path, forged);
  CampaignConfig forged_config;
  forged_config.master_seed = 8;
  forged_config.journal_path = forged_journal.path;
  forged_config.resume = true;
  EXPECT_THROW((void)run_campaign(scenarios, forged_config),
               std::invalid_argument);
}

// --- broadcast contract ------------------------------------------------------

TEST(ServeContract, CleanCampaignsSatisfyTheBroadcastContract) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  CampaignConfig config;
  config.master_seed = 3;
  campaign::ContractObserver contract;
  contract.attach(config);
  const CampaignResult result = run_campaign(scenarios, config);
  EXPECT_EQ(contract.trials_checked(), result.trials.size());
  EXPECT_TRUE(contract.violations().empty()) << contract.violations().front();
}

TEST(ServeContract, SyntheticViolationsAreDetected) {
  const Scenario scenario = cheap_scenario("serve/contract/synthetic");

  // Run trial 0 for a genuine SimResult, then tamper with it.
  const campaign::TrialExecutor executor(scenario, 3);
  const campaign::TrialExecutor::Outcome outcome = executor.run(0);
  ASSERT_TRUE(
      campaign::check_broadcast_contract(scenario, outcome.row, outcome.sim)
          .empty());

  SimResult created = outcome.sim;  // a token out of thin air
  created.token_first.push_back(created.token_first.front());
  SimResult duplicated = outcome.sim;  // first delivery after the horizon
  duplicated.token_first[0][1] = duplicated.rounds_executed + 5;
  duplicated.first_token = duplicated.token_first[0];
  SimResult lying = outcome.sim;  // completion claim without delivery
  lying.token_first[0][1] = kNever;
  lying.first_token = lying.token_first[0];
  SimResult disagreeing = outcome.sim;  // wrong completion round
  disagreeing.completion_round += 1;

  const std::vector<std::pair<const SimResult*, std::string>> tampered = {
      {&created, "no-creation"},
      {&duplicated, "no-duplication"},
      {&lying, "validity"},
      {&disagreeing, "agreement"}};
  for (const auto& [result, property] : tampered) {
    const std::vector<std::string> violations =
        campaign::check_broadcast_contract(scenario, outcome.row, *result);
    ASSERT_FALSE(violations.empty()) << property;
    EXPECT_NE(violations.front().find(property), std::string::npos)
        << violations.front();
  }
}

// Verdicts come in (scenario, trial) order whatever order the trials were
// recorded in, so a campaign's stderr does not depend on --threads; a
// trial's own violations keep the checker's order.
TEST(ServeContract, ViolationsComeInScenarioThenTrialOrder) {
  struct Trial {
    Scenario scenario;
    campaign::TrialRow row;
    SimResult sim;
  };
  std::vector<Trial> trials;
  for (const char* name : {"serve/contract/a", "serve/contract/b"}) {
    const Scenario scenario = cheap_scenario(name);
    const campaign::TrialExecutor executor(scenario, 3);
    for (std::uint32_t t = 0; t < 3; ++t) {
      campaign::TrialExecutor::Outcome outcome = executor.run(t);
      // An agreement violation, then a validity one.
      outcome.sim.completion_round += 1;
      outcome.row.completed = !outcome.row.completed;
      trials.push_back({scenario, outcome.row, outcome.sim});
    }
  }
  campaign::ContractObserver forward, backward;
  for (const Trial& t : trials) forward.record(t.scenario, t.row, t.sim);
  for (auto t = trials.rbegin(); t != trials.rend(); ++t) {
    backward.record(t->scenario, t->row, t->sim);
  }
  const std::vector<std::string> violations = forward.violations();
  ASSERT_EQ(violations.size(), 12u);
  EXPECT_EQ(violations[0].rfind("serve/contract/a#0 agreement", 0), 0u);
  EXPECT_EQ(violations[1].rfind("serve/contract/a#0 validity", 0), 0u);
  EXPECT_EQ(violations[11].rfind("serve/contract/b#2 validity", 0), 0u);
  EXPECT_EQ(backward.violations(), violations);
  EXPECT_EQ(backward.trials_checked(), 6u);
}

// --- heartbeat promptness ----------------------------------------------------

TEST(ServeHeartbeat, StopReturnsPromptlyMidInterval) {
  obs::Heartbeat heartbeat;
  std::atomic<int> ticks{0};
  heartbeat.start(std::chrono::milliseconds(60'000), [&] { ++ticks; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  heartbeat.stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // A sleep-based loop would block for the rest of the 60 s interval; the
  // condition-variable wait returns immediately.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            std::chrono::milliseconds(1'000));
  EXPECT_EQ(ticks.load(), 0);
  heartbeat.stop();  // idempotent
}

// Regression (found while wiring the TSan CI job): running() used to read
// thread_.joinable() while stop() concurrently joined and start() assigned
// the std::thread — a data race — and two racing stop() calls could both
// reach thread_.join(). The lifecycle mutex + atomic running_ flag make
// every combination safe; this test is the TSan witness for that contract.
TEST(ServeHeartbeat, ConcurrentObserversAndStop) {
  for (int iteration = 0; iteration < 20; ++iteration) {
    obs::Heartbeat heartbeat;
    std::atomic<int> ticks{0};
    heartbeat.start(std::chrono::milliseconds(1), [&] { ++ticks; });
    std::atomic<bool> quit{false};
    std::thread observer([&] {
      while (!quit.load()) {
        (void)heartbeat.running();
      }
    });
    std::thread racing_stop([&] { heartbeat.stop(); });
    heartbeat.stop();
    racing_stop.join();
    EXPECT_FALSE(heartbeat.running());
    quit.store(true);
    observer.join();
    const int after_stop = ticks.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // The callback is never invoked again after stop() returns.
    EXPECT_EQ(ticks.load(), after_stop);
  }
}

// Coordinator status snapshots race against lease/commit traffic in serve
// mode (one thread per connection); hammer them concurrently so TSan can
// prove the locking, and check the final snapshot is coherent.
TEST(ServeCoordinator, ConcurrentStatusDuringCommits) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  std::map<std::string, const Scenario*> by_name;
  for (const Scenario& s : scenarios) by_name.emplace(s.name, &s);

  Coordinator::Config config;
  config.master_seed = 99;
  config.unit_trials = 2;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);

  std::atomic<bool> quit{false};
  std::thread status_poller([&] {
    while (!quit.load()) {
      const Coordinator::Status s = coordinator.status();
      EXPECT_LE(s.committed, s.total_trials);
      (void)coordinator.done();
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&] {
      // lease() hands out nullopt once no unit is Pending, so workers
      // drain whatever they hold and exit; the union of all workers'
      // commits covers the campaign.
      while (const std::optional<JobSpec> job = coordinator.lease("stress")) {
        const campaign::TrialExecutor executor(*by_name.at(job->scenario),
                                               job->master_seed);
        for (std::uint32_t t = job->trial_begin; t < job->trial_end; ++t) {
          (void)coordinator.commit(executor.run(t).row);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  quit.store(true);
  status_poller.join();

  EXPECT_TRUE(coordinator.done());
  const Coordinator::Status s = coordinator.status();
  EXPECT_TRUE(s.finished);
  EXPECT_EQ(s.committed, s.total_trials);
  EXPECT_EQ(s.units_pending, 0u);
  EXPECT_EQ(s.units_leased, 0u);
}

// --- faultline: plan parsing and schedule determinism ------------------------

TEST(ServeFaultline, SpecParsesAndRoundTrips) {
  const FaultPlan plan = parse_fault_plan(
      "seed=7;drop=0.03;corrupt=0.02;delay=0.05:25;torn=0.1;crash=0.01;"
      "stall=0.01:300");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.drop, 0.03);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.02);
  EXPECT_DOUBLE_EQ(plan.delay, 0.05);
  EXPECT_EQ(plan.delay_ms, 25);
  EXPECT_DOUBLE_EQ(plan.torn_write, 0.1);
  EXPECT_DOUBLE_EQ(plan.crash, 0.01);
  EXPECT_DOUBLE_EQ(plan.stall, 0.01);
  EXPECT_EQ(plan.stall_ms, 300);
  EXPECT_TRUE(plan.any_wire());
  EXPECT_TRUE(plan.any_journal());
  EXPECT_TRUE(plan.any_lifecycle());

  // Canonical spec round-trips to the same plan (commas also accepted).
  const FaultPlan again = parse_fault_plan(fault_plan_to_spec(plan));
  EXPECT_EQ(fault_plan_to_spec(again), fault_plan_to_spec(plan));
  EXPECT_EQ(parse_fault_plan("drop=0.5,reset=0.25").reset, 0.25);
  EXPECT_FALSE(parse_fault_plan("").any_wire());
}

TEST(ServeFaultline, SpecRejectsMalformedInput) {
  EXPECT_THROW((void)parse_fault_plan("dorp=0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("drop=1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("drop=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("drop"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("delay=0.1:-5"), std::invalid_argument);
  // A category's probabilities must sum to <= 1.
  EXPECT_THROW((void)parse_fault_plan("drop=0.6;corrupt=0.6"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("torn=0.7;enospc=0.7"),
               std::invalid_argument);
}

TEST(ServeFaultline, ScheduleIsAPureFunctionOfSeedSiteAndIndex) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop = 0.2;
  plan.corrupt = 0.2;
  plan.delay = 0.2;
  plan.crash = 0.3;
  FaultInjector a(plan), b(plan);

  // Same plan => identical decision sequences, and the stateful draw agrees
  // with the side-effect-free replay of the same index.
  for (std::uint64_t k = 0; k < 256; ++k) {
    int ms = 0;
    EXPECT_EQ(a.next_wire(&ms), b.wire_decision(k)) << k;
    EXPECT_EQ(a.lifecycle_decision(k), b.lifecycle_decision(k)) << k;
  }

  // A different seed produces a different schedule.
  FaultPlan other = plan;
  other.seed = 43;
  const FaultInjector c(other);
  bool differs = false;
  for (std::uint64_t k = 0; k < 256 && !differs; ++k) {
    differs = b.wire_decision(k) != c.wire_decision(k);
  }
  EXPECT_TRUE(differs);

  // Totals track what actually fired.
  const FaultTotals totals = a.totals();
  EXPECT_GT(totals.total(), 0u);
  EXPECT_EQ(totals.total(),
            totals.drops + totals.corruptions + totals.delays);
}

// --- faultline: wire chaos stays byte-identical -------------------------------

TEST(ServeFaultline, WireChaosPoolsAreByteIdenticalToBatch) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 777);

  FaultPlan plan;
  plan.seed = 99;
  plan.drop = 0.05;
  plan.corrupt = 0.05;
  plan.partial = 0.03;
  plan.reset = 0.02;
  plan.delay = 0.10;
  plan.delay_ms = 2;
  FaultInjector injector(plan);
  const ScopedFaultInjector guard(injector);

  for (const unsigned workers : {1u, 2u, 4u}) {
    Coordinator::Config config;
    config.master_seed = 777;
    config.unit_trials = 1;
    config.lease_secs = 2.0;
    Coordinator coordinator(config);
    coordinator.load_campaign(scenarios);
    Server server(coordinator, {});
    LoopbackNet net(server);

    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        WorkerOptions options;
        options.poll = std::chrono::milliseconds(10);
        options.backoff_base = std::chrono::milliseconds(2);
        options.backoff_max = std::chrono::milliseconds(40);
        (void)run_worker(net.connector(), scenarios, options);
      });
    }
    for (std::thread& t : pool) t.join();

    ASSERT_TRUE(coordinator.done()) << workers << " workers";
    const CampaignResult result = coordinator.finalize();
    EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials)
        << workers << " workers";
    EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries)
        << workers << " workers";
  }
  // The plan's probabilities guarantee traffic was actually disturbed.
  EXPECT_GT(injector.totals().total(), 0u);
}

TEST(ServeFaultline, InjectedCrashesHealThroughRestartAndRequeue) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 31);

  FaultPlan plan;
  plan.seed = 5;
  plan.crash = 0.3;
  FaultInjector injector(plan);
  const ScopedFaultInjector guard(injector);

  Coordinator::Config config;
  config.master_seed = 31;
  config.unit_trials = 2;
  config.lease_secs = 0.05;  // requeue the crashed worker's unit quickly
  config.adaptive_lease = false;
  config.max_unit_expiries = 0;  // never quarantine: the run must complete
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);
  Server server(coordinator, {});
  LoopbackNet net(server);

  // The default WorkerOptions::crash handler throws InjectedCrash; the
  // harness plays supervisor and restarts the worker until the campaign
  // drains. Every crash loses an uncommitted trial, re-run after requeue.
  WorkerOptions options;
  options.poll = std::chrono::milliseconds(10);
  int restarts = 0;
  for (;;) {
    try {
      (void)run_worker(net.connector(), scenarios, options);
      break;
    } catch (const InjectedCrash&) {
      ASSERT_LT(++restarts, 500) << "crash loop did not converge";
    }
  }
  EXPECT_TRUE(coordinator.done());
  EXPECT_GT(injector.totals().crashes, 0u);
  EXPECT_EQ(restarts, static_cast<int>(injector.totals().crashes));

  const CampaignResult result = coordinator.finalize();
  EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries);
}

// --- coordinator self-healing -------------------------------------------------

TEST(ServeCoordinator, PoisonUnitsAreQuarantinedAndLateCommitsHeal) {
  const std::vector<Scenario> scenarios = {cheap_scenario("serve/poison/one")};
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 13);

  Coordinator::Config config;
  config.master_seed = 13;
  config.unit_trials = 0;  // one unit covering all four trials
  config.lease_secs = 0.01;
  config.adaptive_lease = false;
  config.max_unit_expiries = 2;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);

  // Two leases expire without a single commit: the unit is poison.
  for (int round = 0; round < 2; ++round) {
    const std::optional<JobSpec> job = coordinator.lease("doomed");
    ASSERT_TRUE(job.has_value()) << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_FALSE(coordinator.lease("doomed").has_value());

  // Quarantined, the campaign settles instead of livelocking.
  EXPECT_TRUE(coordinator.done());
  const Coordinator::Status status = coordinator.status();
  EXPECT_EQ(status.units_quarantined, 1u);
  EXPECT_EQ(status.trials_quarantined, 4u);
  EXPECT_GE(status.lease_expiries, 2u);
  EXPECT_TRUE(status.finished);

  const std::vector<Coordinator::QuarantinedUnit> manifest =
      coordinator.quarantined();
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_EQ(manifest[0].scenario, "serve/poison/one");
  EXPECT_EQ(manifest[0].trial_begin, 0u);
  EXPECT_EQ(manifest[0].trial_end, 4u);
  EXPECT_EQ(manifest[0].committed, 0u);
  EXPECT_EQ(manifest[0].expiries, 2u);
  EXPECT_EQ(manifest[0].last_worker, "doomed");

  // finalize() exports the committed subset — here, nothing.
  const CampaignResult partial = coordinator.finalize();
  EXPECT_TRUE(partial.trials.empty());
  EXPECT_TRUE(partial.summaries.empty());

  // Late commits are still accepted and heal the unit back to Done.
  const campaign::TrialExecutor executor(scenarios[0], 13);
  for (std::uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(coordinator.commit(executor.run(t).row),
              Coordinator::Commit::Accepted);
  }
  EXPECT_EQ(coordinator.status().units_quarantined, 0u);
  EXPECT_TRUE(coordinator.quarantined().empty());
  const CampaignResult healed = coordinator.finalize();
  EXPECT_EQ(campaign::trials_to_jsonl(healed.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(healed.summaries), ref_summaries);
}

TEST(ServeCoordinator, PartialQuarantineExportsTheCommittedSubset) {
  // Two scenarios; one completes, the other is quarantined half-committed.
  const std::vector<Scenario> scenarios = {
      cheap_scenario("serve/subset/done"),
      cheap_scenario("serve/subset/poison")};
  Coordinator::Config config;
  config.master_seed = 17;
  config.unit_trials = 0;
  config.lease_secs = 0.01;
  config.adaptive_lease = false;
  config.max_unit_expiries = 1;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);

  const campaign::TrialExecutor done_exec(scenarios[0], 17);
  const campaign::TrialExecutor poison_exec(scenarios[1], 17);
  const std::optional<JobSpec> first = coordinator.lease("w");
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->scenario, "serve/subset/done");
  for (std::uint32_t t = 0; t < 4; ++t) {
    (void)coordinator.commit(done_exec.run(t).row);
  }
  const std::optional<JobSpec> second = coordinator.lease("w");
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->scenario, "serve/subset/poison");
  (void)coordinator.commit(poison_exec.run(0).row);  // half-done, then stuck
  (void)coordinator.commit(poison_exec.run(1).row);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_FALSE(coordinator.lease("w").has_value());  // sweep quarantines

  ASSERT_TRUE(coordinator.done());
  const std::vector<Coordinator::QuarantinedUnit> manifest =
      coordinator.quarantined();
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_EQ(manifest[0].scenario, "serve/subset/poison");
  EXPECT_EQ(manifest[0].committed, 2u);
  EXPECT_EQ(coordinator.status().trials_quarantined, 2u);

  // The export carries the complete scenario plus the committed half of the
  // quarantined one, with per-scenario summary counts to match.
  const CampaignResult result = coordinator.finalize();
  EXPECT_EQ(result.trials.size(), 6u);
  ASSERT_EQ(result.summaries.size(), 2u);
  EXPECT_EQ(result.summaries[0].trials, 4u);
  EXPECT_EQ(result.summaries[1].trials, 2u);
}

TEST(ServeCoordinator, SpeculativeRedispatchHandsStragglersToIdleWorkers) {
  const std::vector<Scenario> scenarios = {cheap_scenario("serve/spec/one")};
  Coordinator::Config config;
  config.master_seed = 19;
  config.unit_trials = 0;  // one unit: the straggler
  config.lease_secs = 0.2;
  config.adaptive_lease = false;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);

  const std::optional<JobSpec> slow = coordinator.lease("slow");
  ASSERT_TRUE(slow.has_value());

  // Too early: the lease is under half its window, and the holder itself
  // never gets a speculative copy of its own unit.
  EXPECT_FALSE(coordinator.lease("idle").has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(coordinator.lease("slow").has_value());

  // Past the half-window mark an idle worker is handed a second copy...
  const std::optional<JobSpec> copy = coordinator.lease("idle");
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->unit, slow->unit);
  EXPECT_EQ(coordinator.status().speculative_dispatches, 1u);
  // ...but only one copy per lease term.
  EXPECT_FALSE(coordinator.lease("idle2").has_value());

  // Either holder finishing the unit finishes the campaign (commit dedup
  // makes the duplicate execution harmless).
  const campaign::TrialExecutor executor(scenarios[0], 19);
  for (std::uint32_t t = 0; t < 4; ++t) {
    (void)coordinator.commit(executor.run(t).row);
  }
  EXPECT_TRUE(coordinator.done());
  EXPECT_EQ(coordinator.status().units_done, 1u);
}

TEST(ServeCoordinator, AdaptiveLeaseTracksObservedUnitTimes) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  Coordinator::Config config;
  config.master_seed = 23;
  config.unit_trials = 1;  // 10 units: enough adaptive observations
  config.lease_secs = 30.0;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);

  // Before any unit completes, the window is the static lease_secs.
  EXPECT_EQ(coordinator.status().lease_ms_effective, 30'000u);
  drain(coordinator, scenarios, "w0");
  // After the campaign, it is derived from observed unit seconds: p90 x
  // slack for millisecond-scale units lands far below 30 s (clamped to the
  // 50 ms floor when the trials are fast enough).
  const std::size_t adapted = coordinator.status().lease_ms_effective;
  EXPECT_LT(adapted, 30'000u);
  EXPECT_GE(adapted, 50u);
}

TEST(ServeWorker, ReconnectBackoffIsBoundedJitteredAndDeterministic) {
  WorkerOptions options;
  options.backoff_base = std::chrono::milliseconds(100);
  options.backoff_max = std::chrono::milliseconds(2000);

  // Attempt 0: base x jitter in [0.5, 1.5) of 100 ms.
  const auto first = reconnect_backoff_delay(options, "w0", 0, 0);
  EXPECT_GE(first.count(), 50);
  EXPECT_LT(first.count(), 150);

  // Replays are deterministic; the cap binds every attempt, even absurd ones.
  EXPECT_EQ(reconnect_backoff_delay(options, "w0", 3, 7),
            reconnect_backoff_delay(options, "w0", 3, 7));
  for (const std::uint64_t attempt : {5u, 10u, 63u, 1000u}) {
    const auto d = reconnect_backoff_delay(options, "w0", attempt, attempt);
    EXPECT_LE(d.count(), 2000) << attempt;
    EXPECT_GE(d.count(), 1) << attempt;
  }

  // Jitter varies with the lifetime attempt and with the worker identity, so
  // two workers that died together do not retry in lockstep forever.
  bool attempt_varies = false;
  for (std::uint64_t k = 1; k < 8 && !attempt_varies; ++k) {
    attempt_varies = reconnect_backoff_delay(options, "w0", 0, k) !=
                     reconnect_backoff_delay(options, "w0", 0, 0);
  }
  EXPECT_TRUE(attempt_varies);
  bool worker_varies = false;
  for (std::uint64_t k = 0; k < 8 && !worker_varies; ++k) {
    worker_varies = reconnect_backoff_delay(options, "w0", 0, k) !=
                    reconnect_backoff_delay(options, "w1", 0, k);
  }
  EXPECT_TRUE(worker_varies);
}

// --- wire: poisoned-reader contract ------------------------------------------

TEST(ServeWire, PoisonedReaderReportsReasonAndRefusesReuse) {
  std::string stream = encode_frame("{\"type\":\"status\"}");
  stream[stream.size() - 1] ^= 0x01;  // corrupt the payload
  FrameReader reader;
  reader.feed(stream);
  EXPECT_FALSE(reader.next().has_value());
  ASSERT_TRUE(reader.corrupt());
  EXPECT_FALSE(reader.corrupt_reason().empty());
  EXPECT_NE(reader.corrupt_reason().find("CRC"), std::string::npos);

  // Feeding more data is discarded: recovery is reconnect-only.
  reader.feed(encode_frame("{\"type\":\"status\"}"));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());

  // Reusing a poisoned reader on a live socket is a caller bug, not a hang:
  // recv_frame refuses it loudly.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  bool timed_out = false;
  EXPECT_THROW((void)recv_frame(sv[0], reader, 100, &timed_out),
               std::logic_error);
  ::close(sv[0]);
  ::close(sv[1]);
}

// --- checkpoint: write-failure paths ------------------------------------------

TEST(ServeCheckpoint, InjectedWriteFailuresFailLoudlyAndKeepThePrefix) {
  // Torn write: half a line reaches disk, the append throws, and the loader
  // recovers the prefix by dropping the torn tail.
  {
    const TempPath journal("torn");
    JournalWriter writer;
    writer.open(journal.path);
    writer.append(sample_row(0, 11));
    {
      FaultPlan plan;
      plan.torn_write = 1.0;
      FaultInjector injector(plan);
      const ScopedFaultInjector guard(injector);
      EXPECT_THROW(writer.append(sample_row(1, 22)), std::runtime_error);
      EXPECT_EQ(injector.totals().torn_writes, 1u);
    }
    writer.close();
    const JournalLoad load = load_journal(journal.path);
    EXPECT_EQ(load.rows.size(), 1u);
    EXPECT_EQ(load.dropped_torn_tail, 1u);

    // Reopening cuts the torn tail, so the file is appendable again.
    JournalWriter again;
    again.open(journal.path);
    again.append(sample_row(2, 33));
    again.close();
    const JournalLoad healed = load_journal(journal.path);
    EXPECT_EQ(healed.rows.size(), 2u);
    EXPECT_EQ(healed.dropped_torn_tail, 0u);
  }

  // fsync EIO: the line is durable-unknown — the append throws even though
  // the bytes made it out, and the journal stays fully parseable.
  {
    const TempPath journal("eio");
    JournalWriter writer;
    writer.open(journal.path);
    writer.append(sample_row(0, 11));
    {
      FaultPlan plan;
      plan.fsync_eio = 1.0;
      FaultInjector injector(plan);
      const ScopedFaultInjector guard(injector);
      EXPECT_THROW(writer.append(sample_row(1, 22)), std::runtime_error);
    }
    writer.close();
    const JournalLoad load = load_journal(journal.path);
    EXPECT_EQ(load.rows.size(), 2u);
    EXPECT_EQ(load.dropped_torn_tail, 0u);
  }

  // ENOSPC: nothing reaches disk; the valid prefix is untouched.
  {
    const TempPath journal("enospc");
    JournalWriter writer;
    writer.open(journal.path);
    writer.append(sample_row(0, 11));
    {
      FaultPlan plan;
      plan.append_enospc = 1.0;
      FaultInjector injector(plan);
      const ScopedFaultInjector guard(injector);
      EXPECT_THROW(writer.append(sample_row(1, 22)), std::runtime_error);
    }
    writer.append(sample_row(1, 22));  // injector gone: the retry commits
    writer.close();
    const JournalLoad load = load_journal(journal.path);
    EXPECT_EQ(load.rows.size(), 2u);
    EXPECT_EQ(load.dropped_torn_tail, 0u);
  }
}

TEST(ServeCoordinator, JournalFailureDegradesButCommitsSurvive) {
  const std::vector<Scenario> scenarios = {cheap_scenario("serve/degrade/one")};
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 29);

  const TempPath journal("degrade");
  Coordinator::Config config;
  config.master_seed = 29;
  config.unit_trials = 0;
  config.journal_path = journal.path;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);
  ASSERT_TRUE(coordinator.lease("w").has_value());

  const campaign::TrialExecutor executor(scenarios[0], 29);
  EXPECT_EQ(coordinator.commit(executor.run(0).row),
            Coordinator::Commit::Accepted);
  {
    // Disk dies: the commit still succeeds (availability over durability),
    // checkpointing is disabled and counted.
    FaultPlan plan;
    plan.append_enospc = 1.0;
    FaultInjector injector(plan);
    const ScopedFaultInjector guard(injector);
    EXPECT_EQ(coordinator.commit(executor.run(1).row),
              Coordinator::Commit::Accepted);
  }
  EXPECT_EQ(coordinator.status().journal_errors, 1u);
  for (std::uint32_t t = 2; t < 4; ++t) {
    (void)coordinator.commit(executor.run(t).row);
  }
  EXPECT_TRUE(coordinator.done());
  const CampaignResult result = coordinator.finalize();
  EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries);

  // The journal holds exactly the pre-failure prefix, still loadable.
  EXPECT_EQ(load_journal(journal.path).rows.size(), 1u);
}

// --- checkpoint: telemetry journaling -----------------------------------------

[[nodiscard]] campaign::TelemetryRow sample_telemetry(const std::string& name,
                                                      std::uint32_t trial) {
  campaign::TelemetryRow row;
  row.scenario = name;
  row.trial = trial;
  row.wall_us = 1000 + trial;
  row.polled = 10 * trial;
  row.deliveries = 3;
  return row;
}

TEST(ServeCheckpoint, TelemetryLinesRoundTripAndDedupeFirstWins) {
  const TrialRow trial = sample_row(0, 11);
  const campaign::TelemetryRow t0 = sample_telemetry(trial.scenario, 0);
  campaign::TelemetryRow t0_later = t0;
  t0_later.wall_us = 9999;  // a replayed row with different (wall) bytes

  const JournalLoad load =
      parse_journal(journal_line(trial) + journal_line(t0) +
                    journal_line(t0_later) + journal_line(sample_row(1, 22)));
  EXPECT_EQ(load.rows.size(), 2u);
  ASSERT_EQ(load.telemetry.size(), 1u);
  // First-wins: telemetry is nondeterministic, so replays never conflict.
  EXPECT_EQ(load.telemetry[0].wall_us, 1000);
  EXPECT_EQ(load.telemetry[0].polled, 0u);

  // A telemetry line with a corrupted CRC still poisons the journal.
  std::string bad = journal_line(t0);
  bad[0] = bad[0] == '0' ? '1' : '0';
  EXPECT_THROW((void)parse_journal(bad + journal_line(trial)),
               std::invalid_argument);
}

TEST(ServeCoordinator, ResumeReplaysJournaledTelemetry) {
  const std::vector<Scenario> scenarios = {cheap_scenario("serve/telem/one")};
  const TempPath journal("telem");

  std::string first_run_telemetry;
  {
    Coordinator::Config config;
    config.master_seed = 37;
    config.unit_trials = 0;
    config.journal_path = journal.path;
    config.collect_telemetry = true;
    Coordinator coordinator(config);
    coordinator.load_campaign(scenarios);
    ASSERT_TRUE(coordinator.lease("w").has_value());
    const campaign::TrialExecutor executor(scenarios[0], 37);
    for (std::uint32_t t = 0; t < 4; ++t) {
      (void)coordinator.commit(executor.run(t).row);
      coordinator.add_telemetry(sample_telemetry(scenarios[0].name, t));
    }
    ASSERT_TRUE(coordinator.done());
    first_run_telemetry =
        campaign::telemetry_to_jsonl(coordinator.finalize().telemetry);
    EXPECT_FALSE(first_run_telemetry.empty());
  }

  // A fresh coordinator resuming the journal recovers rows AND telemetry.
  Coordinator::Config config;
  config.master_seed = 37;
  config.unit_trials = 0;
  config.journal_path = journal.path;
  config.resume = true;
  config.collect_telemetry = true;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);
  EXPECT_EQ(coordinator.status().resumed, 4u);
  EXPECT_TRUE(coordinator.done());
  EXPECT_EQ(campaign::telemetry_to_jsonl(coordinator.finalize().telemetry),
            first_run_telemetry);
}

TEST(ServeCoordinator, FreshLoadOverATornJournalStaysResumable) {
  // A crash left a torn fragment; a coordinator started without --resume
  // appends after it, and a later resume must still read every row.
  const std::vector<Scenario> scenarios = {cheap_scenario("serve/torn/fresh")};
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 41);
  const TempPath journal("torn_fresh");
  const std::string torn = journal_line(sample_row(0, 11));
  std::ofstream(journal.path, std::ios::binary)
      << torn.substr(0, torn.size() / 2);

  Coordinator::Config config;
  config.master_seed = 41;
  config.journal_path = journal.path;
  {
    Coordinator coordinator(config);
    coordinator.load_campaign(scenarios);
    drain(coordinator, scenarios, "w0");
  }
  config.resume = true;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);
  EXPECT_EQ(coordinator.status().resumed, 4u);
  EXPECT_TRUE(coordinator.done());
  const CampaignResult result = coordinator.finalize();
  EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries);
}

// --- one journal, either front end -------------------------------------------

TEST(ServeJournal, CoordinatorJournalResumesABatchRun) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 55);
  const TempPath journal("cross_serve");
  {
    Coordinator::Config config;
    config.master_seed = 55;
    config.journal_path = journal.path;
    Coordinator coordinator(config);
    coordinator.load_campaign(scenarios);
    drain(coordinator, scenarios, "w0");
  }

  std::atomic<std::size_t> executed{0};
  CampaignConfig config;
  config.master_seed = 55;
  config.journal_path = journal.path;
  config.resume = true;
  config.observer = [&](const Scenario&, const TrialRow&,
                        const SimResult&) { ++executed; };
  const CampaignResult resumed = run_campaign(scenarios, config);
  EXPECT_EQ(executed.load(), 0u);
  EXPECT_EQ(resumed.resumed, resumed.trials.size());
  EXPECT_EQ(campaign::trials_to_jsonl(resumed.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(resumed.summaries), ref_summaries);
}

TEST(ServeJournal, BatchJournalResumesACoordinator) {
  const std::vector<Scenario> scenarios = cheap_campaign();
  const auto [ref_trials, ref_summaries] = batch_reference(scenarios, 56);
  const TempPath journal("cross_batch");
  CampaignConfig batch;
  batch.master_seed = 56;
  batch.journal_path = journal.path;
  const std::size_t total = run_campaign(scenarios, batch).trials.size();

  Coordinator::Config config;
  config.master_seed = 56;
  config.journal_path = journal.path;
  config.resume = true;
  Coordinator coordinator(config);
  coordinator.load_campaign(scenarios);
  EXPECT_EQ(coordinator.status().resumed, total);
  EXPECT_TRUE(coordinator.done());
  const CampaignResult result = coordinator.finalize();
  EXPECT_EQ(campaign::trials_to_jsonl(result.trials), ref_trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(result.summaries), ref_summaries);
}

// --- the ledger --------------------------------------------------------------

using campaign::CampaignGrid;
using campaign::Ledger;

/// A row of `scenario`#`trial` under `master`, with the derived seed.
[[nodiscard]] TrialRow ledger_row(const std::string& scenario,
                                  std::uint32_t trial, std::uint64_t master) {
  TrialRow row;
  row.scenario = scenario;
  row.trial = trial;
  row.seed = campaign::trial_seed(master, scenario, trial);
  row.completed = trial % 2 == 0;
  row.rounds = row.completed ? 10 + static_cast<Round>(trial) : kNever;
  row.rounds_executed = 20;
  row.sends = 100 + trial;
  row.collisions = 3 * trial;
  return row;
}

TEST(CampaignLedger, ValidatesTheGridBeforeAllocatingSlots) {
  // 2^32 slots would not fit in memory, so the check must come first.
  const CampaignGrid too_many = {{"ledger/a", std::size_t{1} << 32}};
  EXPECT_THROW(Ledger(too_many, 1, false), std::invalid_argument);
  const CampaignGrid empty = {{"ledger/a", 0}};
  EXPECT_THROW(Ledger(empty, 1, false), std::invalid_argument);
  const CampaignGrid twice = {{"ledger/a", 1}, {"ledger/a", 1}};
  EXPECT_THROW(Ledger(twice, 1, false), std::invalid_argument);
  const CampaignGrid one = {{"ledger/a", 1}};
  EXPECT_THROW(Ledger(one, 1, false, "", /*resume=*/true),
               std::invalid_argument);
}

TEST(CampaignLedger, RejectsRowsOutsideTheGridAndForeignSeeds) {
  Ledger ledger({{"ledger/a", 2}}, 5, false);
  TrialRow unknown = ledger_row("ledger/b", 0, 5);
  EXPECT_THROW((void)ledger.commit(unknown), std::invalid_argument);
  EXPECT_THROW((void)ledger.commit(ledger_row("ledger/a", 2, 5)),
               std::invalid_argument);
  TrialRow foreign = ledger_row("ledger/a", 0, 5);
  foreign.seed ^= 1;
  EXPECT_THROW((void)ledger.commit(foreign), std::invalid_argument);
  EXPECT_EQ(ledger.committed(), 0u);
}

TEST(CampaignLedger, ReplaysDedupeAndConflictsThrow) {
  Ledger ledger({{"ledger/a", 2}}, 5, false);
  const TrialRow row = ledger_row("ledger/a", 1, 5);
  EXPECT_EQ(ledger.commit(row), Ledger::Commit::Accepted);
  EXPECT_EQ(ledger.commit(row), Ledger::Commit::Duplicate);
  TrialRow timed = row;  // wall time is outside the determinism contract
  timed.wall_us = 1234;
  EXPECT_EQ(ledger.commit(timed), Ledger::Commit::Duplicate);
  TrialRow conflicting = row;
  conflicting.sends += 1;
  EXPECT_THROW((void)ledger.commit(conflicting), std::runtime_error);
  EXPECT_EQ(ledger.committed(), 1u);
  EXPECT_EQ(ledger.result(false).trials, std::vector<TrialRow>{row});
}

TEST(CampaignLedger, PartlyFilledLedgerYieldsTheCommittedSubset) {
  Ledger ledger({{"ledger/a", 3}, {"ledger/b", 2}, {"ledger/c", 1}}, 5, false);
  const std::vector<TrialRow> rows = {ledger_row("ledger/a", 0, 5),
                                      ledger_row("ledger/a", 2, 5),
                                      ledger_row("ledger/c", 0, 5)};
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    EXPECT_EQ(ledger.commit(*it), Ledger::Commit::Accepted);
  }
  const CampaignResult partial = ledger.result(false);
  EXPECT_EQ(partial.trials, rows);  // slot order, not commit order
  ASSERT_EQ(partial.summaries.size(), 2u);  // no summary for ledger/b
  EXPECT_EQ(partial.summaries[0].scenario, "ledger/a");
  EXPECT_EQ(partial.summaries[0].trials, 2u);
  EXPECT_EQ(partial.summaries[0].failures, 0u);
  EXPECT_DOUBLE_EQ(partial.summaries[0].mean_sends, 101.0);
  EXPECT_EQ(partial.summaries[1].scenario, "ledger/c");
  EXPECT_EQ(partial.summaries[1].trials, 1u);

  // Moving the rows out yields the same result.
  const CampaignResult moved = std::move(ledger).result(false);
  EXPECT_EQ(moved.trials, partial.trials);
  EXPECT_EQ(campaign::summaries_to_jsonl(moved.summaries),
            campaign::summaries_to_jsonl(partial.summaries));
}

TEST(CampaignLedger, TelemetryFirstRowWinsAndForeignRowsAreIgnored) {
  Ledger ledger({{"ledger/a", 2}}, 5, /*collect_telemetry=*/true);
  campaign::TelemetryRow later = sample_telemetry("ledger/a", 1);
  later.wall_us = 9999;
  ledger.add_telemetry(sample_telemetry("ledger/a", 1));
  ledger.add_telemetry(later);
  ledger.add_telemetry(sample_telemetry("ledger/b", 0));
  ledger.add_telemetry(sample_telemetry("ledger/a", 2));
  const std::vector<campaign::TelemetryRow> telemetry =
      ledger.result(false).telemetry;
  ASSERT_EQ(telemetry.size(), 1u);
  EXPECT_EQ(telemetry[0], sample_telemetry("ledger/a", 1));

  Ledger untracked({{"ledger/a", 2}}, 5, /*collect_telemetry=*/false);
  untracked.add_telemetry(sample_telemetry("ledger/a", 1));
  EXPECT_TRUE(untracked.result(false).telemetry.empty());
}

TEST(CampaignLedger, JournalFailureIsCountedAndTheRowStaysCommitted) {
  const TempPath journal("ledger_enospc");
  Ledger ledger({{"ledger/a", 2}}, 5, false, journal.path);
  {
    FaultPlan plan;
    plan.append_enospc = 1.0;
    FaultInjector injector(plan);
    const ScopedFaultInjector guard(injector);
    EXPECT_EQ(ledger.commit(ledger_row("ledger/a", 0, 5)),
              Ledger::Commit::Accepted);
  }
  EXPECT_EQ(ledger.journal_errors(), 1u);
  EXPECT_NE(ledger.journal_error().find("ENOSPC"), std::string::npos);
  // Journaling has stopped; commits go on.
  EXPECT_EQ(ledger.commit(ledger_row("ledger/a", 1, 5)),
            Ledger::Commit::Accepted);
  EXPECT_EQ(ledger.journal_errors(), 1u);
  EXPECT_EQ(ledger.committed(), 2u);
  EXPECT_TRUE(load_journal(journal.path).rows.empty());

  // run_campaign fails the run instead.
  const TempPath batch_journal("ledger_enospc_batch");
  CampaignConfig config;
  config.threads = 1;
  config.journal_path = batch_journal.path;
  FaultPlan plan;
  plan.append_enospc = 1.0;
  FaultInjector injector(plan);
  const ScopedFaultInjector guard(injector);
  EXPECT_THROW((void)run_campaign({cheap_scenario("ledger/batch")}, config),
               std::runtime_error);
}

}  // namespace
}  // namespace dualrad::serve
