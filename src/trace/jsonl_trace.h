// JSONL decision-trace sink: one JSON object per adaptive decision point
// (and per injected device fault), newline-delimited, answering "why did the
// runtime pick this variant on iteration k?" with the full decision input
// (|WS|, avg outdegree, the T1/T2/T3 thresholds, sampling interval R), the
// chosen variant, and whether the choice switched the running implementation.
//
// Line schemas (stable field order):
//   {"kind":"decision","algo":"bfs","iteration":3,"ws_size":412,
//    "avg_outdegree":7.9,"outdeg_stddev":3.1,"num_nodes":100000,
//    "t1":32,"t2":2688,"t3_fraction":0.3,"t3":30000,"skew_weight":0.5,
//    "interval":1,"prev_variant":"U_B_QU","variant":"U_T_QU",
//    "switched":true,"ts_us":1234.5,"seq":17}
//   {"kind":"fault","fault":"transfer","op":"memcpy.h2d","op_index":12,
//    "permanent":false,"stream":2,"ts_us":987.5,"seq":41}
//   {"kind":"service","action":"cache_hit","algo":"bfs","graph":0,
//    "version":4294967296,"source":17,"query":42,"leader":0,"bytes":80288,
//    "ts_us":1500.25,"seq":63}
//   {"kind":"persistent","event":"exit","algo":"bfs","iteration":96,
//    "ws_size":0,"bound":2688,"t2":2688,"iterations":95,"ts_us":401.5,
//    "seq":880}
// Service lines record why a query skipped the device (result-cache hit,
// request collapse) or how the cache changed (insert/evict/invalidate).
// Persistent lines mark where a persistent run began and ended, with both
// sides of its bound; under the direction controller they add "alpha_term".
#pragma once

#include <string>

#include "trace/trace_sink.h"

namespace trace {

class JsonlDecisionSink : public TraceSink {
 public:
  // `path` empty = in-memory only; otherwise flush() writes the lines there.
  explicit JsonlDecisionSink(std::string path = "");

  void decision(const DecisionEvent& ev) override;
  void persistent(const PersistentEvent& ev) override;
  void fault(const FaultEvent& ev) override;
  void service(const ServiceEvent& ev) override;
  void flush() override;

  const std::string& data() const { return lines_; }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t switches() const { return switches_; }
  std::uint64_t faults() const { return faults_; }
  std::uint64_t service_events() const { return service_events_; }
  std::uint64_t persistent_events() const { return persistent_events_; }

 private:
  std::string path_;
  std::string lines_;
  std::uint64_t decisions_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t service_events_ = 0;
  std::uint64_t persistent_events_ = 0;
};

}  // namespace trace
