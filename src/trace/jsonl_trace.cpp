#include "trace/jsonl_trace.h"

#include <fstream>

#include "trace/json_writer.h"

namespace trace {

JsonlDecisionSink::JsonlDecisionSink(std::string path) : path_(std::move(path)) {}

void JsonlDecisionSink::decision(const DecisionEvent& ev) {
  JsonWriter w;
  w.begin_object();
  w.field("kind", "decision");
  w.field("algo", ev.algo);
  w.field("iteration", ev.iteration);
  w.field("ws_size", ev.ws_size);
  w.field("avg_outdegree", ev.avg_outdegree);
  w.field("outdeg_stddev", ev.outdeg_stddev);
  w.field("num_nodes", ev.num_nodes);
  w.field("t1", ev.t1);
  w.field("t2", ev.t2);
  w.field("t3_fraction", ev.t3_fraction);
  w.field("t3", ev.t3);
  w.field("skew_weight", ev.skew_weight);
  w.field("direction", ev.direction);
  w.field("representation", ev.representation);
  w.field("frontier_edges", ev.frontier_edges);
  w.field("unexplored_edges", ev.unexplored_edges);
  w.field("do_alpha", ev.do_alpha);
  w.field("do_beta", ev.do_beta);
  w.field("interval", ev.interval);
  w.field("prev_variant", ev.prev_variant);
  w.field("variant", ev.variant);
  w.field("switched", ev.switched);
  w.field("ts_us", ev.ts_us);
  w.field("seq", ev.seq);
  w.end_object();
  lines_ += w.str();
  lines_ += '\n';
  ++decisions_;
  switches_ += ev.switched;
}

void JsonlDecisionSink::persistent(const PersistentEvent& ev) {
  JsonWriter w;
  w.begin_object();
  w.field("kind", "persistent");
  w.field("event", ev.event);
  w.field("algo", ev.algo);
  w.field("iteration", ev.iteration);
  w.field("ws_size", ev.ws_size);
  w.field("bound", ev.bound);
  w.field("t2", ev.t2);
  if (ev.has_alpha_term) w.field("alpha_term", ev.alpha_term);
  w.field("iterations", ev.iterations);
  w.field("ts_us", ev.ts_us);
  w.field("seq", ev.seq);
  w.end_object();
  lines_ += w.str();
  lines_ += '\n';
  ++persistent_events_;
}

void JsonlDecisionSink::fault(const FaultEvent& ev) {
  JsonWriter w;
  w.begin_object();
  w.field("kind", "fault");
  w.field("fault", ev.kind);
  w.field("op", ev.op);
  w.field("op_index", ev.op_index);
  w.field("permanent", ev.permanent);
  w.field("stream", ev.stream);
  w.field("device", ev.device);
  w.field("ts_us", ev.ts_us);
  w.field("seq", ev.seq);
  w.end_object();
  lines_ += w.str();
  lines_ += '\n';
  ++faults_;
}

void JsonlDecisionSink::service(const ServiceEvent& ev) {
  JsonWriter w;
  w.begin_object();
  w.field("kind", "service");
  w.field("action", ev.action);
  w.field("algo", ev.algo);
  w.field("graph", ev.graph);
  w.field("version", ev.version);
  w.field("source", ev.source);
  w.field("query", ev.query);
  w.field("leader", ev.leader);
  w.field("bytes", ev.bytes);
  w.field("ts_us", ev.ts_us);
  w.field("seq", ev.seq);
  w.end_object();
  lines_ += w.str();
  lines_ += '\n';
  ++service_events_;
}

void JsonlDecisionSink::flush() {
  if (path_.empty()) return;
  std::ofstream f(path_, std::ios::binary | std::ios::trunc);
  if (f) f << lines_;
}

}  // namespace trace
