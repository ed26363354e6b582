// Deterministic fault injection for the simulated device.
//
// A FaultPlan describes which device operations fail: per-kind probabilities
// (decided by a hash of the plan seed and the op's per-kind index, so a plan
// replays bit-identically at any --sim-threads value), explicit op indices,
// and an optional permanent device death after N total ops. The Device
// consults its installed plan on every allocation, transfer and kernel
// launch; an injected failure surfaces as a DeviceFault exception, which the
// layers above translate into the adaptive::ErrorCode taxonomy instead of
// aborting the process.
//
// Determinism contract: every fault decision is a pure function of
// (plan.seed, kind, per-kind op index). All decision sites run on the host
// API thread (the same contract as Device accounting), so op indices — and
// therefore the whole failure schedule — are independent of the simulator
// thread count.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

namespace simt {

enum class FaultKind : std::uint8_t { alloc, transfer, kernel };
const char* fault_kind_name(FaultKind kind);

// Thrown by Device when an operation fails — injected by a FaultPlan or a
// genuine simulated-memory exhaustion. `permanent` marks a dead device:
// every subsequent operation will fail too, so callers should stop
// retrying and fall back to a host execution path.
class DeviceFault : public std::exception {
 public:
  // `device` is the throwing device's fleet label ("dev2"); it prefixes the
  // what() message so fleet faults are attributable without extra plumbing.
  DeviceFault(FaultKind kind, std::string op, std::uint64_t op_index,
              bool permanent, std::string device = "");

  const char* what() const noexcept override { return message_.c_str(); }

  FaultKind kind() const { return kind_; }
  const std::string& op() const { return op_; }
  std::uint64_t op_index() const { return op_index_; }
  bool permanent() const { return permanent_; }
  const std::string& device() const { return device_; }

 private:
  FaultKind kind_;
  std::string op_;
  std::uint64_t op_index_ = 0;
  bool permanent_ = false;
  std::string device_;
  std::string message_;
};

struct FaultPlan {
  std::uint64_t seed = 2013;
  // Per-operation failure probabilities, decided independently per op.
  double p_alloc = 0;
  double p_transfer = 0;
  double p_kernel = 0;
  // Explicit per-kind op indices that must fail (0-based, in issue order).
  std::vector<std::uint64_t> alloc_at;
  std::vector<std::uint64_t> transfer_at;
  std::vector<std::uint64_t> kernel_at;
  // Total device ops (any kind) after which the device dies permanently:
  // every later op fails with permanent = true. 0 = never.
  std::uint64_t dead_after = 0;

  bool empty() const {
    return p_alloc == 0 && p_transfer == 0 && p_kernel == 0 &&
           alloc_at.empty() && transfer_at.empty() && kernel_at.empty() &&
           dead_after == 0;
  }

  // Spec grammar (the CLI's --fault-plan): comma-separated key=value pairs.
  //   seed=N            decision seed (default 2013)
  //   alloc.p=F         per-allocation failure probability
  //   transfer.p=F      per-transfer failure probability
  //   kernel.p=F        per-launch failure probability
  //   alloc.at=N        fail the N-th allocation (repeatable)
  //   transfer.at=N     fail the N-th transfer (repeatable)
  //   kernel.at=N       fail the N-th launch (repeatable)
  //   dead.after=N      device dies permanently after N total ops
  // Aborts (AGG_CHECK) on a malformed spec: plans come from trusted
  // experiment scripts, not user data.
  static FaultPlan parse(const std::string& spec);

  // One-line human-readable echo of the plan (CLI, bench headers).
  std::string summary() const;
};

// Per-device injection state: per-kind op counters plus the installed plan.
class FaultInjector {
 public:
  void install(FaultPlan plan) {
    plan_ = std::move(plan);
    counts_ = {};
    total_ = 0;
    dead_ = false;
  }

  bool armed() const { return !plan_.empty(); }
  bool device_dead() const { return dead_; }
  const FaultPlan& plan() const { return plan_; }

  struct Decision {
    bool fail = false;
    bool permanent = false;
    std::uint64_t op_index = 0;  // per-kind index of the op just decided
  };

  // Decides the fate of the next op of `kind`; advances the per-kind and
  // total counters either way.
  Decision next(FaultKind kind);

 private:
  FaultPlan plan_;
  std::array<std::uint64_t, 3> counts_{};  // indexed by FaultKind
  std::uint64_t total_ = 0;
  bool dead_ = false;
};

}  // namespace simt
