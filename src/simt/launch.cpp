#include "simt/launch.h"

#include <cmath>

namespace simt::detail {

LaunchScratch& launch_scratch(const TimingModel& tm) {
  // One per host thread: the serving thread, each pool worker and any user
  // thread launch on their own, and a thread runs one launch at a time.
  thread_local LaunchScratch scratch;
  scratch.trace.rebind(tm);
  scratch.tally.reset();
  return scratch;
}

WarpCost predicate_warp_cost(const TimingModel& tm, const Predicate& pred,
                             bool broadcast) {
  WarpCost wc;
  if (!pred.enabled()) {
    // No working-set predicate: an out-of-work warp just evaluates the grid
    // bound check and exits.
    wc.issue_cycles = 2.0;
    wc.lane_work = 2.0 * kWarpSize;
    wc.lockstep_work = 2.0 * kWarpSize;
    return wc;
  }
  double transactions;
  if (broadcast || pred.stride == 0) {
    // Block-mapped predicate: all lanes read the same element — one segment.
    transactions = 1.0;
  } else {
    transactions = std::ceil(static_cast<double>(kWarpSize) * pred.stride /
                             tm.segment_bytes);
  }
  wc.issue_cycles = pred.ops + tm.issue_cycles_per_mem_instr +
                    tm.lsu_cycles_per_transaction * transactions;
  wc.mem_instrs = 1;
  wc.transactions = transactions;
  wc.lane_work = pred.ops * kWarpSize;
  wc.lockstep_work = pred.ops * kWarpSize;
  return wc;
}

}  // namespace simt::detail
