#include "service/resilience.h"

#include <algorithm>

namespace svc {

double backoff_us(const ResiliencePolicy& policy, int attempt) {
  if (attempt < 1) return 0;
  double d = policy.backoff_base_us;
  for (int i = 1; i < attempt && d < policy.backoff_cap_us; ++i) d *= 2;
  return std::min(d, policy.backoff_cap_us);
}

FaultAction next_action(const ResiliencePolicy& policy, int attempts_done,
                        bool permanent, bool device_healthy,
                        bool replica_available) {
  if (!permanent && device_healthy && attempts_done <= policy.max_retries) {
    return FaultAction::retry;
  }
  // The device is lost (or retries are exhausted on a dead device): prefer a
  // healthy replica over the CPU oracle.
  if ((permanent || !device_healthy) && replica_available) {
    return FaultAction::failover;
  }
  return policy.degrade_to_cpu ? FaultAction::degrade : FaultAction::fail;
}

}  // namespace svc
