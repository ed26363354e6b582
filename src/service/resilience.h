// Resilience policy for GraphService: bounded retry with modeled-time
// exponential backoff for transient device faults, and graceful degradation
// to the serial CPU oracles when the device is unhealthy (or a permanent
// fault killed it) or a query's deadline leaves no room for a device run.
//
// The policy layer is pure decision logic over modeled time — it never
// consults the wall clock — so a given fault plan yields the same retry /
// degrade schedule at any --sim-threads value.
#pragma once

#include <cstdint>

namespace svc {

struct ResiliencePolicy {
  // Maximum *re*-executions after the first attempt. 0 disables retry.
  int max_retries = 2;
  // Backoff charged to the query's stream before retry k (1-based) is
  // backoff_base_us * 2^(k-1), capped at backoff_cap_us.
  double backoff_base_us = 50.0;
  double backoff_cap_us = 5000.0;
  // Degrade to the CPU oracle instead of failing when retries are exhausted
  // or the device is dead. Off = exhausted queries report their fault.
  bool degrade_to_cpu = true;
};

// Backoff delay before retry `attempt` (1-based), in modeled microseconds.
double backoff_us(const ResiliencePolicy& policy, int attempt);

// Decision for one faulted attempt: retry on-device, fail over to another
// replica device, degrade to CPU, or give up and report the fault. A
// transient fault on a healthy device retries while retries remain. When
// the faulting device is dead (permanent fault) and another healthy replica
// holds the graph, the query fails over instead of degrading — CPU
// degradation is reserved for "no replica left". Transient faults never
// fail over (the replica would re-pay the backoff anyway and determinism
// favors a stable stream placement).
enum class FaultAction : std::uint8_t { retry, degrade, fail, failover };
FaultAction next_action(const ResiliencePolicy& policy, int attempts_done,
                        bool permanent, bool device_healthy,
                        bool replica_available);

}  // namespace svc
