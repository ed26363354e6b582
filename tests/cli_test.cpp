// End-to-end tests of the `agg` command-line tool: generate / stats /
// convert / algorithm commands, exercised through the real binary.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "trace/json_writer.h"

namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  static std::string tool() {
    // ctest runs with CWD = build/tests; the tool lives in build/tools.
    for (const char* candidate : {"../tools/agg", "tools/agg", "./agg"}) {
      if (fs::exists(candidate)) return candidate;
    }
    return "";
  }

  void SetUp() override {
    if (tool().empty()) GTEST_SKIP() << "agg binary not found";
    work_ = fs::temp_directory_path() / "agg_cli_test";
    fs::create_directories(work_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(work_, ec);
  }

  // Runs the tool, captures stdout, returns (exit_code, output).
  std::pair<int, std::string> run(const std::string& args) {
    const std::string out_file = (work_ / "out.txt").string();
    const std::string cmd = tool() + " " + args + " > " + out_file + " 2>&1";
    const int rc = std::system(cmd.c_str());
    std::ifstream in(out_file);
    std::stringstream ss;
    ss << in.rdbuf();
    return {WEXITSTATUS(rc), ss.str()};
  }

  std::string path(const char* name) { return (work_ / name).string(); }

  fs::path work_;
};

TEST_F(CliTest, HelpExitsZero) {
  const auto [rc, out] = run("--help");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("agg"), std::string::npos);
  EXPECT_NE(out.find("generate"), std::string::npos);
}

TEST_F(CliTest, NoArgumentsFailsWithUsage) {
  const auto [rc, out] = run("");
  EXPECT_EQ(rc, 2);
}

TEST_F(CliTest, UnknownCommandFails) {
  const auto [rc, out] = run("frobnicate x");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, SimThreadsOutOfRangeIsAUsageError) {
  const auto g = path("g.agg");
  auto [rc, out] = run("generate er --nodes=200 --out=" + g);
  ASSERT_EQ(rc, 0) << out;
  // Validation runs before the pool is sized, so no thread is started.
  for (const char* bad : {"100000", "0", "abc", "4x"}) {
    std::tie(rc, out) = run("stats " + g + " --sim-threads=" + bad);
    EXPECT_EQ(rc, 2) << bad << ": " << out;
    EXPECT_NE(out.find("--sim-threads"), std::string::npos) << out;
  }
  std::tie(rc, out) = run("stats " + g + " --sim-threads=2");
  EXPECT_EQ(rc, 0) << out;
}

TEST_F(CliTest, GenerateStatsPipeline) {
  const auto g = path("g.agg");
  auto [rc, out] = run("generate er --nodes=2000 --out=" + g);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_TRUE(fs::exists(g));
  std::tie(rc, out) = run("stats " + g);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("n=2,000"), std::string::npos);
}

TEST_F(CliTest, BfsAgreesAcrossPolicies) {
  const auto g = path("g.agg");
  ASSERT_EQ(run("generate p2p --nodes=5000 --out=" + g).first, 0);
  const auto gpu = run("bfs " + g + " --policy=adaptive");
  const auto cpu = run("bfs " + g + " --policy=cpu");
  ASSERT_EQ(gpu.first, 0);
  ASSERT_EQ(cpu.first, 0);
  // Both report identical reach line ("BFS from X: reached ...").
  const auto first_line = [](const std::string& s) {
    return s.substr(0, s.find('\n'));
  };
  EXPECT_EQ(first_line(gpu.second), first_line(cpu.second));
}

TEST_F(CliTest, SsspAssignsWeightsWhenMissing) {
  const auto g = path("g.agg");
  ASSERT_EQ(run("generate er --nodes=1000 --out=" + g).first, 0);
  const auto [rc, out] = run("sssp " + g + " --policy=U_T_QU");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("assigning uniform weights"), std::string::npos);
  EXPECT_NE(out.find("SSSP from"), std::string::npos);
}

TEST_F(CliTest, ConvertRoundTrip) {
  const auto a = path("a.agg");
  const auto b = path("b.gr");
  const auto c = path("c.agg");
  ASSERT_EQ(run("generate er --nodes=500 --weights --out=" + a).first, 0);
  ASSERT_EQ(run("convert " + a + " " + b).first, 0);
  ASSERT_EQ(run("convert " + b + " " + c).first, 0);
  const auto s1 = run("stats " + a).second;
  const auto s2 = run("stats " + c).second;
  EXPECT_EQ(s1.substr(0, s1.find('\n')), s2.substr(0, s2.find('\n')));
}

TEST_F(CliTest, CcAndMstAndPagerankRun) {
  const auto g = path("g.agg");
  ASSERT_EQ(run("generate p2p --nodes=3000 --weights --out=" + g).first, 0);
  auto [rc, out] = run("cc " + g);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("components"), std::string::npos);
  std::tie(rc, out) = run("mst " + g);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("spanning forest"), std::string::npos);
  std::tie(rc, out) = run("pagerank " + g + " --top=3");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("top 3 pages"), std::string::npos);
}

TEST_F(CliTest, ProfileFlagPrintsKernelTable) {
  const auto g = path("g.agg");
  ASSERT_EQ(run("generate er --nodes=3000 --out=" + g).first, 0);
  // Every frontier of this graph is below T2, so the adaptive BFS is one
  // persistent kernel; a fixed variant still launches each kernel.
  auto [rc, out] = run("bfs " + g + " --profile");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("bound by"), std::string::npos);
  EXPECT_NE(out.find("bfs.persistent"), std::string::npos);
  std::tie(rc, out) = run("bfs " + g + " --profile --policy=U_B_QU");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("bound by"), std::string::npos);
  EXPECT_NE(out.find("workset_gen"), std::string::npos);
}

TEST_F(CliTest, MissingFileFails) {
  const auto [rc, out] = run("bfs /nonexistent/graph.agg");
  EXPECT_NE(rc, 0);
}

TEST_F(CliTest, ProfileFlagOnEveryAlgorithm) {
  const auto g = path("g.agg");
  ASSERT_EQ(run("generate p2p --nodes=3000 --weights --out=" + g).first, 0);
  for (const char* cmd : {"sssp", "cc", "pagerank", "mst"}) {
    SCOPED_TRACE(cmd);
    const auto [rc, out] = run(std::string(cmd) + " " + g + " --profile");
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("bound by"), std::string::npos) << out;
    EXPECT_NE(out.find("total kernel time"), std::string::npos);
  }
}

TEST_F(CliTest, ChromeTraceAndMetricsFilesWritten) {
  const auto g = path("g.agg");
  const auto trace_file = path("trace.json");
  const auto metrics_file = path("metrics.json");
  ASSERT_EQ(run("generate er --nodes=3000 --out=" + g).first, 0);
  const auto [rc, out] = run("bfs " + g + " --trace-out=" + trace_file +
                             " --trace-format=chrome --metrics-out=" +
                             metrics_file);
  ASSERT_EQ(rc, 0) << out;
  ASSERT_TRUE(fs::exists(trace_file));
  ASSERT_TRUE(fs::exists(metrics_file));

  std::stringstream tss, mss;
  tss << std::ifstream(trace_file).rdbuf();
  mss << std::ifstream(metrics_file).rdbuf();
  EXPECT_NE(tss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tss.str().find("memcpy.h2d"), std::string::npos);
  EXPECT_NE(tss.str().find("bfs.iteration"), std::string::npos);
  EXPECT_NE(mss.str().find("simt.kernels"), std::string::npos);
  EXPECT_NE(mss.str().find("engine.iterations"), std::string::npos);
}

TEST_F(CliTest, JsonlDecisionTraceWritten) {
  const auto g = path("g.agg");
  const auto trace_file = path("decisions.jsonl");
  ASSERT_EQ(run("generate er --nodes=3000 --out=" + g).first, 0);
  const auto [rc, out] =
      run("bfs " + g + " --trace-out=" + trace_file + " --trace-format=jsonl");
  ASSERT_EQ(rc, 0) << out;
  ASSERT_TRUE(fs::exists(trace_file));
  std::stringstream ss;
  ss << std::ifstream(trace_file).rdbuf();
  EXPECT_NE(ss.str().find("\"kind\":\"decision\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"t1\":"), std::string::npos);
}

TEST_F(CliTest, BadTraceFormatFails) {
  const auto g = path("g.agg");
  ASSERT_EQ(run("generate er --nodes=500 --out=" + g).first, 0);
  const auto [rc, out] =
      run("bfs " + g + " --trace-out=" + path("t.json") + " --trace-format=xml");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("unknown --trace-format"), std::string::npos);
}

// ---- resilience end to end (agg serve under a fault plan) ---------------------

// A query stream against a device that faults and eventually dies: every
// query is still answered (retried or CPU-degraded), the trace records the
// faults, and the counters agree with it. Faults also land inside the
// persistent runs of the served BFS queries.
TEST_F(CliTest, ServeAnswersEveryQueryUnderInjectedFaults) {
  const auto g = path("rmat.agg");
  const auto trace_file = path("faults.jsonl");
  const auto metrics_file = path("fault-metrics.json");
  ASSERT_EQ(run("generate rmat --nodes=4096 --out=" + g).first, 0);
  // --no-cache keeps this about resilience: with caching on, repeat sources
  // would be answered from the cache and the per-query fault counts would
  // depend on source collisions.
  const auto [rc, out] = run(
      "serve " + g + " --queries=32 --concurrency=3 --no-cache "
      "--fault-plan=seed=7,kernel.p=0.2,transfer.p=0.05,dead.after=6000 "
      "--trace-out=" + trace_file + " --trace-format=jsonl --metrics-out=" +
      metrics_file);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("served 32/32 queries"), std::string::npos) << out;

  std::ifstream lines(trace_file);
  std::size_t faults = 0;
  std::set<std::string> ops;
  for (std::string line; std::getline(lines, line);) {
    const auto ev = trace::json_parse(line);
    ASSERT_TRUE(ev.has_value()) << line;
    if (ev->find("kind")->string != "fault") continue;
    ++faults;
    const std::string& kind = ev->find("fault")->string;
    EXPECT_TRUE(kind == "alloc" || kind == "transfer" || kind == "kernel")
        << kind;
    ops.insert(ev->find("op")->string);
  }
  EXPECT_GT(faults, 0u) << "fault plan injected nothing";
  EXPECT_TRUE(ops.count("bfs.persistent")) << "no fault inside a persistent run";

  std::stringstream mss;
  mss << std::ifstream(metrics_file).rdbuf();
  const auto doc = trace::json_parse(mss.str());
  ASSERT_TRUE(doc.has_value());
  const trace::JsonValue& c = *doc->find("counters");
  const auto counter = [&](const char* name) {
    const trace::JsonValue* v = c.find(name);
    return v ? v->number : 0.0;
  };
  EXPECT_EQ(counter("svc.completed"), 32);
  EXPECT_EQ(counter("svc.fault"), counter("simt.fault.injected"));
  EXPECT_GT(counter("svc.retry") + counter("svc.degraded"), 0);
}

TEST_F(CliTest, ServeDegradesEveryQueryOnADeadDevice) {
  const auto g = path("rmat.agg");
  ASSERT_EQ(run("generate rmat --nodes=4096 --out=" + g).first, 0);
  const auto [rc, out] =
      run("serve " + g + " --queries=16 --no-cache --fault-plan=dead.after=1");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("served 16/16 queries"), std::string::npos) << out;
  EXPECT_NE(out.find("degraded to CPU 16"), std::string::npos) << out;
  EXPECT_NE(out.find("device dead"), std::string::npos) << out;
}

// ---- serving end to end (agg serve: cache, mutations, fleet) ----------------

// The "payload checksum <hex>" line of a serve's report.
std::string checksum_of(const std::string& out) {
  const std::string key = "payload checksum ";
  const std::size_t at = out.find(key);
  if (at == std::string::npos) return "";
  return out.substr(at + key.size(), out.find('\n', at) - at - key.size());
}

// The document in `path`; nullopt when it is missing or not valid JSON.
std::optional<trace::JsonValue> parse_file(const std::string& path) {
  std::stringstream ss;
  ss << std::ifstream(path).rdbuf();
  return trace::json_parse(ss.str());
}

// The counters of a --metrics-out document (0 for a missing counter).
std::map<std::string, double> counters_of(const std::string& path) {
  const auto doc = parse_file(path);
  std::map<std::string, double> c;
  if (!doc) return c;
  if (const trace::JsonValue* all = doc->find("counters")) {
    for (const auto& [name, v] : all->members) c[name] = v.number;
  }
  return c;
}

// A Zipfian stream served with the cache on answers byte-identically to the
// uncached run, hits the cache, collapses duplicates and records both in
// the service trace.
TEST_F(CliTest, ServeCacheHitsAndCollapsesWithIdenticalAnswers) {
  const auto g = path("rmat.agg");
  const auto trace_file = path("cache.jsonl");
  const auto metrics_file = path("cache-metrics.json");
  ASSERT_EQ(run("generate rmat --nodes=4096 --out=" + g).first, 0);
  const std::string stream = "serve " + g + " --queries=256 --zipf=1.0";
  const auto [rc, cached] =
      run(stream + " --cache-mb=64 --trace-out=" + trace_file +
          " --trace-format=jsonl --metrics-out=" + metrics_file);
  ASSERT_EQ(rc, 0) << cached;
  const auto [rc_plain, plain] = run(stream + " --no-cache");
  ASSERT_EQ(rc_plain, 0) << plain;
  EXPECT_NE(cached.find("served 256/256 queries"), std::string::npos) << cached;
  EXPECT_NE(plain.find("served 256/256 queries"), std::string::npos) << plain;
  EXPECT_FALSE(checksum_of(cached).empty()) << cached;
  EXPECT_EQ(checksum_of(cached), checksum_of(plain));

  auto m = counters_of(metrics_file);
  EXPECT_GT(m["svc.cache.hit"], 0) << "no cache hit";
  EXPECT_GT(m["svc.collapse"], 0) << "no collapse";
  EXPECT_EQ(m["svc.completed"], 256);
  std::set<std::string> actions;
  std::ifstream lines(trace_file);
  for (std::string line; std::getline(lines, line);) {
    const auto ev = trace::json_parse(line);
    ASSERT_TRUE(ev.has_value()) << line;
    if (ev->find("kind")->string == "service") {
      actions.insert(ev->find("action")->string);
    }
  }
  EXPECT_TRUE(actions.count("cache_hit")) << "no cache_hit event";
  EXPECT_TRUE(actions.count("cache_insert")) << "no cache_insert event";
  EXPECT_TRUE(actions.count("collapse")) << "no collapse event";

  const auto [rc1, one] = run(stream + " --cache-mb=64 --sim-threads=1");
  const auto [rc4, four] = run(stream + " --cache-mb=64 --sim-threads=4");
  ASSERT_EQ(rc1, 0) << one;
  ASSERT_EQ(rc4, 0) << four;
  EXPECT_EQ(one, four) << "the serve differs at 1 and 4 simulator threads";
}

// A read/mutate stream over a disconnected community graph answers
// byte-identically with and without the cache (deltas never leave a stale
// answer), patches the resident copy in place with no rebuild, and keeps
// cache entries across deltas.
TEST_F(CliTest, ServeMutationsPatchInPlaceAndKeepCacheEntries) {
  const auto g = path("comm.agg");
  const auto metrics_file = path("dyn-metrics.json");
  ASSERT_EQ(run("generate communities --nodes=2048 --communities=16 --out=" +
                g).first,
            0);
  const std::string stream = "serve " + g +
                             " --queries=256 --zipf=1.0 --mutate-fraction=0.1"
                             " --delta-size=8";
  const auto [rc, cached] =
      run(stream + " --cache-mb=64 --metrics-out=" + metrics_file);
  ASSERT_EQ(rc, 0) << cached;
  const auto [rc_plain, plain] = run(stream + " --no-cache");
  ASSERT_EQ(rc_plain, 0) << plain;
  EXPECT_NE(cached.find("mutations 30 applied"), std::string::npos) << cached;
  EXPECT_NE(plain.find("mutations 30 applied"), std::string::npos) << plain;
  EXPECT_FALSE(checksum_of(cached).empty()) << cached;
  EXPECT_EQ(checksum_of(cached), checksum_of(plain));

  auto m = counters_of(metrics_file);
  EXPECT_EQ(m["svc.mutate"], 30);
  EXPECT_GT(m["svc.mutate.patch"], 0);
  EXPECT_EQ(m["svc.mutate.rebuild"], 0);
  EXPECT_GT(m["svc.mutate.bytes"], 0);
  EXPECT_GT(m["svc.cache.delta_keep"], 0);

  const auto [rc1, one] = run(stream + " --cache-mb=64 --sim-threads=1");
  const auto [rc4, four] = run(stream + " --cache-mb=64 --sim-threads=4");
  ASSERT_EQ(rc1, 0) << one;
  ASSERT_EQ(rc4, 0) << four;
  EXPECT_EQ(one, four) << "the serve differs at 1 and 4 simulator threads";
}

// A 4-device fleet whose device 0 dies answers byte-identically to one
// device, routing to the survivors and failing over without degrading; a
// fleet whose devices are smaller than the graph shards it and still
// answers exactly.
TEST_F(CliTest, ServeFleetFailsOverAndShardsWithIdenticalAnswers) {
  const auto g = path("rmat.agg");
  const auto big = path("rmat8k.agg");
  const auto fleet_metrics = path("fleet-metrics.json");
  const auto shard_metrics = path("shard-metrics.json");
  ASSERT_EQ(run("generate rmat --nodes=4096 --out=" + g).first, 0);
  ASSERT_EQ(run("generate rmat --nodes=8192 --out=" + big).first, 0);
  const std::string flags = " --zipf=1.0 --no-cache --no-batch";
  const std::string stream = "serve " + g + " --queries=64" + flags;
  const auto [rc, single] = run(stream);
  ASSERT_EQ(rc, 0) << single;
  const auto [rc_fleet, fleet] =
      run(stream + " --devices=4 --shard=auto --fault-plan=dead.after=5"
                   " --fault-device=0 --metrics-out=" + fleet_metrics);
  ASSERT_EQ(rc_fleet, 0) << fleet;
  const std::string small = "serve " + big + " --queries=32" + flags;
  const auto [rc_shard, shard] = run(small + " --devices=4 --shard=auto"
                                             " --mem-mb=1 --metrics-out=" +
                                     shard_metrics);
  ASSERT_EQ(rc_shard, 0) << shard;
  const auto [rc_single32, single32] = run(small);
  ASSERT_EQ(rc_single32, 0) << single32;

  EXPECT_NE(single.find("served 64/64 queries"), std::string::npos) << single;
  EXPECT_NE(fleet.find("served 64/64 queries"), std::string::npos) << fleet;
  EXPECT_NE(shard.find("served 32/32 queries"), std::string::npos) << shard;
  EXPECT_NE(shard.find("placement: sharded"), std::string::npos) << shard;
  EXPECT_FALSE(checksum_of(single).empty()) << single;
  EXPECT_EQ(checksum_of(single), checksum_of(fleet));
  EXPECT_FALSE(checksum_of(single32).empty()) << single32;
  EXPECT_EQ(checksum_of(single32), checksum_of(shard));

  auto m = counters_of(fleet_metrics);
  EXPECT_GT(m["svc.route.dev1"], 0);
  EXPECT_GT(m["svc.failover"], 0);
  EXPECT_EQ(m["svc.degraded"], 0);
  EXPECT_EQ(m["svc.completed"], 64);
  auto s = counters_of(shard_metrics);
  EXPECT_GT(s["svc.placement.sharded"], 0);
  EXPECT_GT(s["svc.sharded"], 0);
  EXPECT_EQ(s["svc.degraded"], 0);
  EXPECT_EQ(s["svc.completed"], 32);

  const std::string replicated = stream + " --devices=2";
  const auto [rc1, one] = run(replicated + " --sim-threads=1");
  const auto [rc4, four] = run(replicated + " --sim-threads=4");
  ASSERT_EQ(rc1, 0) << one;
  ASSERT_EQ(rc4, 0) << four;
  EXPECT_EQ(one, four) << "the serve differs at 1 and 4 simulator threads";
}

// ---- tracing, direction and layout end to end (20,000-node graphs) ----------

// The first line of `out` that starts with `prefix`; "" when none does.
std::string line_of(const std::string& out, const std::string& prefix) {
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

// A string member of `v`; "" when it is missing or not a string.
std::string str(const trace::JsonValue& v, std::string_view key) {
  const trace::JsonValue* m = v.find(key);
  return m != nullptr ? std::string(m->str_or("")) : "";
}

// The decision records of a JSONL trace, each line checked to parse.
std::vector<trace::JsonValue> decisions_of(const std::string& path) {
  std::vector<trace::JsonValue> dec;
  std::ifstream lines(path);
  for (std::string line; std::getline(lines, line);) {
    auto ev = trace::json_parse(line);
    EXPECT_TRUE(ev.has_value()) << line;
    if (ev && str(*ev, "kind") == "decision") dec.push_back(std::move(*ev));
  }
  return dec;
}

// Every exporter on an RMAT graph: the Chrome trace and the metrics parse,
// the decision log holds decisions, each with its T1 and variant, and the
// persistent runs' enter/exit lines, and a traced serve draws each stream on
// its own named lane and counts every query.
TEST_F(CliTest, TraceExportersWriteValidDocuments) {
  const auto g = path("rmat.agg");
  ASSERT_EQ(run("generate rmat --nodes=20000 --out=" + g).first, 0);
  const auto trace_file = path("trace.json");
  const auto metrics_file = path("metrics.json");
  auto [rc, out] = run("bfs " + g + " --policy=adaptive --trace-out=" + trace_file +
                       " --trace-format=chrome --metrics-out=" + metrics_file +
                       " --profile");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_TRUE(parse_file(trace_file).has_value());
  EXPECT_TRUE(parse_file(metrics_file).has_value());

  const auto decisions_file = path("decisions.jsonl");
  std::tie(rc, out) = run("bfs " + g + " --policy=adaptive --trace-out=" +
                          decisions_file + " --trace-format=jsonl");
  ASSERT_EQ(rc, 0) << out;
  std::size_t decisions = 0;
  std::ifstream in(decisions_file);
  for (std::string line; std::getline(in, line);) {
    const auto ev = trace::json_parse(line);
    ASSERT_TRUE(ev.has_value()) << line;
    if (str(*ev, "kind") == "persistent") continue;
    EXPECT_EQ(str(*ev, "kind"), "decision") << line;
    EXPECT_NE(ev->find("t1"), nullptr) << line;
    EXPECT_NE(ev->find("variant"), nullptr) << line;
    ++decisions;
  }
  EXPECT_GT(decisions, 0u) << "empty decision trace";

  const auto serve_trace = path("serve-trace.json");
  const auto serve_metrics = path("serve-metrics.json");
  std::tie(rc, out) = run("serve " + g + " --queries=24 --concurrency=3 --mix=mixed"
                          " --trace-out=" + serve_trace +
                          " --metrics-out=" + serve_metrics);
  ASSERT_EQ(rc, 0) << out;
  const auto doc = parse_file(serve_trace);
  ASSERT_TRUE(doc.has_value());
  const trace::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<double> streams;
  std::set<std::string> lanes;
  for (const trace::JsonValue& e : events->items) {
    const trace::JsonValue* args = e.find("args");
    if (args == nullptr) continue;
    if (const trace::JsonValue* s = args->find("stream"); s && s->num_or(0) != 0) {
      streams.insert(s->number);
    }
    if (str(e, "ph") == "M" && str(e, "name") == "thread_name" &&
        str(*args, "name").rfind("stream ", 0) == 0) {
      lanes.insert(str(*args, "name"));
    }
  }
  EXPECT_GE(streams.size(), 2u) << "expected a multi-stream trace";
  EXPECT_EQ(lanes.size(), streams.size());
  auto m = counters_of(serve_metrics);
  EXPECT_EQ(m["svc.queued"], 24);
  EXPECT_EQ(m["svc.completed"], 24);
  EXPECT_GE(m["svc.batches"], 1);
}

// Push, pull and the direction controller answer identically on a
// frontier-heavy (RMAT) and a high-diameter (road) graph; every decision
// records the direction inputs, and the controller reaches a pull iteration
// on RMAT.
TEST_F(CliTest, DirectionsAgreeAndDecisionsRecordTheirInputs) {
  for (const std::string kind : {"rmat", "road"}) {
    SCOPED_TRACE(kind);
    const auto g = path((kind + ".agg").c_str());
    ASSERT_EQ(run("generate " + kind + " --nodes=20000 --out=" + g).first, 0);
    const auto answer = [&](const std::string& args, const std::string& prefix) {
      const auto [rc, out] = run(args);
      EXPECT_EQ(rc, 0) << out;
      return line_of(out, prefix);
    };
    const std::string bfs = "bfs " + g;
    const std::string push = answer(bfs + " --direction=push", "BFS from");
    EXPECT_FALSE(push.empty());
    EXPECT_EQ(push, answer(bfs + " --direction=pull", "BFS from"));
    EXPECT_EQ(push, answer(bfs + " --policy=adaptive --direction=adaptive", "BFS from"));
    const std::string sssp = "sssp " + g + " --weights=1,31";
    const std::string sssp_push = answer(sssp + " --direction=push", "SSSP from");
    EXPECT_FALSE(sssp_push.empty());
    EXPECT_EQ(sssp_push, answer(sssp + " --direction=pull", "SSSP from"));
  }

  const auto g = path("rmat.agg");
  EXPECT_EQ(run("bfs " + g + " --direction=sideways").first, 2);
  const auto trace_file = path("direction.jsonl");
  const auto [rc, out] = run("bfs " + g + " --policy=adaptive --direction=adaptive"
                             " --trace-out=" + trace_file + " --trace-format=jsonl");
  ASSERT_EQ(rc, 0) << out;
  const auto dec = decisions_of(trace_file);
  EXPECT_FALSE(dec.empty()) << "empty decision trace";
  std::size_t pulls = 0;
  for (const trace::JsonValue& d : dec) {
    const std::string dir = str(d, "direction");
    EXPECT_TRUE(dir == "push" || dir == "pull") << dir;
    for (const char* k : {"frontier_edges", "unexplored_edges", "do_alpha", "do_beta"}) {
      EXPECT_NE(d.find(k), nullptr) << k;
    }
    if (dir == "pull") {
      ++pulls;
      EXPECT_TRUE(str(d, "variant").ends_with("_PULL")) << str(d, "variant");
    }
  }
  EXPECT_GT(pulls, 0u) << "controller never flipped to pull on rmat";
}

// Plain, degree-relabelled, binned and adaptive layouts serve and answer
// identically on a hub-heavy (RMAT) and a regular (road) graph; malformed
// spellings are usage errors, and on RMAT the layout controller leaves plain
// and names the layout in the variant. Smaller graphs never leave plain.
TEST_F(CliTest, LayoutsAgreeAndTheControllerLeavesPlain) {
  for (const std::string kind : {"rmat", "road"}) {
    SCOPED_TRACE(kind);
    const auto g = path((kind + ".agg").c_str());
    ASSERT_EQ(run("generate " + kind + " --nodes=20000 --out=" + g).first, 0);
    std::vector<std::string> sums;
    for (const char* rep : {"plain", "relabelled", "adaptive"}) {
      const auto [rc, out] = run("serve " + g + " --queries=16 --concurrency=2"
                                 " --seed=7 --representation=" + rep);
      EXPECT_EQ(rc, 0) << out;
      sums.push_back(checksum_of(out));
    }
    EXPECT_FALSE(sums[0].empty());
    EXPECT_EQ(sums[0], sums[1]);
    EXPECT_EQ(sums[0], sums[2]);

    const auto plain = run("bfs " + g);
    ASSERT_EQ(plain.first, 0) << plain.second;
    EXPECT_FALSE(line_of(plain.second, "BFS from").empty());
    for (const char* rep : {"relabelled", "binned", "adaptive"}) {
      const auto [rc, out] = run("bfs " + g + " --representation=" + rep);
      EXPECT_EQ(rc, 0) << out;
      EXPECT_EQ(line_of(out, "BFS from"), line_of(plain.second, "BFS from")) << rep;
    }
  }

  const auto g = path("rmat.agg");
  EXPECT_EQ(run("bfs " + g + " --representation=sideways").first, 2);
  EXPECT_EQ(run("bfs " + g + " --policy=U_T_BM_AREP").first, 2);
  const auto trace_file = path("representation.jsonl");
  const auto [rc, out] = run("bfs " + g + " --policy=adaptive --representation=adaptive"
                             " --trace-out=" + trace_file + " --trace-format=jsonl");
  ASSERT_EQ(rc, 0) << out;
  const auto dec = decisions_of(trace_file);
  EXPECT_FALSE(dec.empty()) << "empty decision trace";
  std::size_t alternate = 0;
  for (const trace::JsonValue& d : dec) {
    const std::string rep = str(d, "representation");
    EXPECT_TRUE(rep == "plain" || rep == "relabelled" || rep == "binned") << rep;
    if (rep == "plain") continue;
    ++alternate;
    const std::string variant = str(d, "variant");
    EXPECT_TRUE(variant.ends_with(rep == "relabelled" ? "_REL" : "_BIN")) << variant;
  }
  EXPECT_GT(alternate, 0u) << "controller never left plain on rmat";
}

}  // namespace
