#include "calib.h"

#include <cstddef>
#include <cstdint>

namespace {

constexpr size_t kSlots = 4096;  // 4096 x 8 bytes = 32 KiB: L1/L2 resident
constexpr uint64_t kEmpty = 0;

uint64_t g_table[kSlots];

inline uint64_t NextKey(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x | 1;  // never kEmpty
}

inline size_t SlotOf(uint64_t key) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 52) &
         (kSlots - 1);
}

}  // namespace

extern "C" uint64_t perfbench_calib_kernel(uint32_t rounds) {
  uint64_t sum = 0;
  for (uint32_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < kSlots; ++i) {
      g_table[i] = kEmpty;
    }
    // Fill to 50% load, then look up a mix of present and absent keys.
    uint64_t state = 0x2545F4914F6CDD1Dull + r;
    for (size_t n = 0; n < kSlots / 2; ++n) {
      uint64_t key = NextKey(&state);
      size_t s = SlotOf(key);
      while (g_table[s] != kEmpty && g_table[s] != key) {
        s = (s + 1) & (kSlots - 1);
      }
      g_table[s] = key;
    }
    uint64_t probe = 0x2545F4914F6CDD1Dull + r;
    for (size_t n = 0; n < kSlots; ++n) {
      uint64_t key = (n & 1) ? NextKey(&probe) : NextKey(&probe) ^ 0x55;
      size_t s = SlotOf(key);
      size_t steps = 0;
      while (g_table[s] != kEmpty && g_table[s] != key) {
        s = (s + 1) & (kSlots - 1);
        ++steps;
      }
      sum += (g_table[s] == key) ? s : steps;
    }
  }
  return sum;
}
