#pragma once
// The run context every BENCH_*.json record carries: host, CPUs, load
// average, OpenMP threads and the CMake build type of the code it timed.
//
// Google-benchmark's own context already names the host, CPUs and load; its
// drivers add the other two with benchmark::AddCustomContext(kBuildType /
// ompThreads()). Its "library_build_type" key describes the benchmark
// library, not this code. The hand-rolled JSON drivers write all five keys
// with writeContext().

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace asura::bench {

/// The CMake build type, compiled in by the bench loop of CMakeLists.txt.
inline constexpr const char* kBuildType = ASURA_BUILD_TYPE;

inline int ompThreads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Write `"context": {...},` as one line of a JSON object.
inline void writeContext(std::FILE* f) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::fprintf(f,
               "  \"context\": {\"host_name\": \"%s\", \"num_cpus\": %u, "
               "\"load_avg\": [%.2f, %.2f, %.2f], \"omp_threads\": %d, "
               "\"build_type\": \"%s\"},\n",
               host, std::thread::hardware_concurrency(), load[0], load[1], load[2],
               ompThreads(), kBuildType);
}

}  // namespace asura::bench
