// Chrome trace_event sink: renders the modeled execution as a timeline
// loadable by chrome://tracing and Perfetto (ui.perfetto.dev).
//
// Track layout (one pid per fleet device; single-device runs collapse to
// pid 0 exactly as before):
//   tid 0                 host phases + engine iterations (X events)
//   tid 1..kernel_lanes   default-stream kernel launches, round-robin by
//                         sequence number — "SM-ish" lanes: the modeled
//                         device serializes kernels on one clock, so the
//                         lanes are a reading aid (consecutive launches
//                         alternate lanes), not an occupancy claim; pass the
//                         device's SM count for a familiar width
//   tid kernel_lanes+1    default-stream H<->D transfers (PCIe)
//   tid kernel_lanes+2    adaptive decisions (instant events with the full
//                         T1/T2/T3 input snapshot in args) and persistent-run
//                         entries and exits (with their bound)
//   tid kernel_lanes+3+s  per-stream lanes (one per simt stream s >= 1): all
//                         kernels, transfers and host phases the stream
//                         issued, so a multi-query service schedule renders
//                         one lane per concurrent query slot
//
// Fleet runs: device-scoped events (kernels, transfers, host phases, faults)
// carry the issuing device's ordinal and render under pid = ordinal with the
// same tid layout, so a 4-device service shows four process groups, each with
// its own stream lanes. Decisions and service events stay on pid 0 (they are
// host/router-scoped).
//
// Timestamps are the simulator's modeled microseconds (Chrome's native ts
// unit), so the timeline shows modeled time, not host wall time, and the
// file is byte-identical across --sim-threads values.
#pragma once

#include <string>

#include "trace/trace_sink.h"

namespace trace {

class ChromeTraceSink : public TraceSink {
 public:
  // `path` empty = in-memory only (tests); otherwise flush() writes the
  // complete document there. `kernel_lanes` >= 1.
  explicit ChromeTraceSink(std::string path = "", int kernel_lanes = 4);

  void kernel(const KernelEvent& ev) override;
  void transfer(const TransferEvent& ev) override;
  void host(const HostEvent& ev) override;
  void iteration(const IterationEvent& ev) override;
  void decision(const DecisionEvent& ev) override;
  void persistent(const PersistentEvent& ev) override;
  void fault(const FaultEvent& ev) override;
  void service(const ServiceEvent& ev) override;
  void flush() override;

  // The complete document ({"traceEvents":[...]}), renderable at any point.
  std::string json() const;

 private:
  int transfer_tid() const { return kernel_lanes_ + 1; }
  int decision_tid() const { return kernel_lanes_ + 2; }
  int stream_tid(std::uint32_t stream) const {
    return kernel_lanes_ + 3 + static_cast<int>(stream);
  }
  // Records that `device` emitted on `stream` (lane metadata in json()).
  void note_lane(std::uint32_t device, std::uint32_t stream);

  std::string path_;
  int kernel_lanes_;
  // Highest stream id seen per device ordinal (pid); index = ordinal. Always
  // holds at least pid 0 so empty traces still name the default tracks.
  std::vector<std::uint32_t> max_stream_by_dev_{0};
  std::string events_;  // comma-joined event objects
};

}  // namespace trace
