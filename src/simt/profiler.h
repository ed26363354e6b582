// Per-kernel profiling: aggregates the KernelStats stream of a Device into a
// by-kernel-name report (launch counts, time, divergence, memory traffic,
// bottleneck classification). Attach before a run, render afterwards:
//
//   simt::Profiler prof(dev);
//   ... run algorithms ...
//   std::puts(prof.report().c_str());
//
// The observer fires on the thread that called launch()/launch_phased(),
// after the launch's blocks have run. A mutex guards the entries so
// report()/entries() may be read while another host thread drives the device.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "simt/device.h"

namespace simt {

class Profiler {
 public:
  // Installs itself as the device's kernel observer, chaining to (and on
  // destruction restoring) any observer that was already installed.
  explicit Profiler(Device& dev);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  struct Entry {
    std::uint64_t launches = 0;
    double time_us = 0;
    double sm_time_us = 0;
    double bw_time_us = 0;
    double atomic_time_us = 0;
    double transactions = 0;
    double atomics = 0;
    double lane_work = 0;
    double lockstep_work = 0;
    std::uint64_t warps_executed = 0;

    double simd_efficiency() const {
      return lockstep_work > 0 ? lane_work / lockstep_work : 1.0;
    }
    // Which time component bound the kernel most often (by accumulated us).
    const char* bottleneck() const;
  };

  // Copies under the lock so callers can inspect while the device runs.
  std::map<std::string, Entry> entries() const;
  double total_time_us() const;
  void reset();

  // Table sorted by accumulated time, descending.
  std::string report() const;

 private:
  Device* dev_;
  Device::KernelObserver previous_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  double total_us_ = 0;
};

}  // namespace simt
