#pragma once

/// \file cpu_affinity.hpp
/// How many CPUs this process may run on, for stamping benchmark output.

namespace fastcast::net {

/// CPUs available to this process (affinity-mask aware, so a container
/// limited to 2 of the host's 64 cores reports 2). Always >= 1.
int online_cpu_count();

}  // namespace fastcast::net
