// Trace artifacts extend the determinism contract (see DESIGN.md "Blocks
// run in block order" and tests/parallel_drain_test.cpp): the Chrome trace
// document and the decision JSONL produced by a run must be byte-identical
// for any SIMT thread count, because every event carries modeled time and a
// launch-order sequence number, never wall-clock or worker identity.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"
#include "simt/device.h"
#include "simt/exec_pool.h"
#include "trace/chrome_trace.h"
#include "trace/counters.h"
#include "trace/jsonl_trace.h"
#include "trace/trace_sink.h"

namespace {

struct Artifacts {
  std::string chrome;
  std::string jsonl;
  double metrics_total_us = 0;
};

Artifacts run_traced_adaptive_bfs(int threads, const graph::Csr& g) {
  simt::ExecPool::set_threads(threads);
  auto& tracer = trace::Tracer::instance();
  auto* chrome = static_cast<trace::ChromeTraceSink*>(
      tracer.attach(std::make_unique<trace::ChromeTraceSink>("", 14)));
  auto* jsonl = static_cast<trace::JsonlDecisionSink*>(
      tracer.attach(std::make_unique<trace::JsonlDecisionSink>()));

  simt::Device dev;
  rt::AdaptiveOptions opts;
  opts.monitor_interval = 1;
  const auto r = rt::adaptive_bfs(dev, g, 0, opts);

  Artifacts a;
  a.chrome = chrome->json();
  a.jsonl = jsonl->data();
  a.metrics_total_us = r.metrics.total_us;
  tracer.clear();  // destroys the sinks and resets the sequence counter
  simt::ExecPool::set_threads(1);
  return a;
}

TEST(TraceDeterminism, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  const graph::Csr g = graph::gen::rmat({.scale = 13, .seed = 11});
  const Artifacts serial = run_traced_adaptive_bfs(1, g);
  const Artifacts pooled = run_traced_adaptive_bfs(8, g);

  EXPECT_FALSE(serial.chrome.empty());
  EXPECT_FALSE(serial.jsonl.empty());
  EXPECT_EQ(serial.metrics_total_us, pooled.metrics_total_us);
  // Byte-for-byte: same events, same order, same timestamps, same sequence
  // numbers (Tracer::clear() between runs resets the counter).
  EXPECT_EQ(serial.chrome, pooled.chrome);
  EXPECT_EQ(serial.jsonl, pooled.jsonl);
}

TEST(TraceDeterminism, CountersAreThreadInvariant) {
  const graph::Csr g = graph::gen::erdos_renyi(4000, 40000, 9);
  auto& reg = trace::CounterRegistry::instance();

  auto run = [&](int threads) {
    simt::ExecPool::set_threads(threads);
    reg.set_enabled(true);
    reg.reset();
    simt::Device dev;
    (void)rt::adaptive_bfs(dev, g, 0);
    const std::string snapshot = reg.to_json();
    reg.set_enabled(false);
    reg.reset();
    simt::ExecPool::set_threads(1);
    return snapshot;
  };

  const std::string serial = run(1);
  const std::string pooled = run(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, pooled);
}

}  // namespace
