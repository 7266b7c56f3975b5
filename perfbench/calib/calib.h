// Fixed calibration kernel for the two-clock benchmark.
//
// A compute-bound, cache-resident hash-map workload: open-addressing inserts
// and lookups of xorshift keys in a 32 KiB table. It is built by its own CMake
// project (calib/CMakeLists.txt) with fixed flags, so no option of the
// simulator's build can change its code. Timed just before and just after
// each measured round on the same thread, it tracks how fast the host runs
// right now; host times are scaled by (nominal kernel time / measured kernel
// time).

#ifndef PERFBENCH_CALIB_CALIB_H_
#define PERFBENCH_CALIB_CALIB_H_

#include <cstdint>

extern "C" {

// Runs `rounds` passes of the kernel and returns a checksum that depends on
// every lookup (so the work cannot be elided). The result for a given
// `rounds` is the same on every call.
uint64_t perfbench_calib_kernel(uint32_t rounds);

}  // extern "C"

#endif  // PERFBENCH_CALIB_CALIB_H_
