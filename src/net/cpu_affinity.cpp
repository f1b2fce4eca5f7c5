#include "fastcast/net/cpu_affinity.hpp"

#include <sched.h>

namespace fastcast::net {

int online_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

}  // namespace fastcast::net
