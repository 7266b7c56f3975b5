// PhysMem's lock-free page directory (src/mem/phys_mem.h): concurrent
// first-touch from many threads, reads that never materialize pages, the
// sorted resident and dirty index sets, whole-page host access, and the
// exact resident set surviving a snapshot round trip.
//
// tools/ci.sh runs this binary under ThreadSanitizer (the tsan stage).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <latch>
#include <map>
#include <thread>
#include <vector>

#include "src/mem/phys_mem.h"
#include "src/snap/snap_stack.h"
#include "src/snap/snapshot.h"

namespace neve {
namespace {

constexpr uint64_t kMemSize = 64ull << 20;  // 16384 pages, 32 leaves
constexpr uint64_t kLeafPages = 512;

Pa PageBase(uint64_t index) { return Pa(index << kPageShift); }

uint64_t Pattern(uint64_t thread, uint64_t page) {
  return (thread << 48) ^ (page * 0x9E3779B97F4A7C15ull) ^ 0x5A5A;
}

TEST(PhysMemTest, ConcurrentFirstTouchOfSharedAndDistinctPages) {
  // Eight threads first-touch the same pages (each at its own offset) and
  // their own disjoint pages at once. Pages and leaves are installed by
  // compare-exchange, so every write must land in the one surviving page.
  constexpr uint64_t kThreads = 8;
  constexpr uint64_t kShared = 48;    // spread over several leaves
  constexpr uint64_t kDistinct = 24;  // per thread
  constexpr uint64_t kSharedStride = 173;
  constexpr uint64_t kDistinctBase = 8192;
  PhysMem mem(kMemSize);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (uint64_t i = 0; i < kShared; ++i) {
        uint64_t page = i * kSharedStride;
        Pa pa = PageBase(page) + t * 8;
        mem.Write64(pa, Pattern(t, page));
        EXPECT_EQ(mem.Read64(pa), Pattern(t, page));
        uint64_t d = kDistinctBase + t * kDistinct + i % kDistinct;
        mem.Write64(PageBase(d) + (i / kDistinct) * 8, Pattern(t, d));
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (uint64_t i = 0; i < kShared; ++i) {
    uint64_t page = i * kSharedStride;
    for (uint64_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mem.Read64(PageBase(page) + t * 8), Pattern(t, page))
          << "page " << page << " thread " << t;
    }
  }
  for (uint64_t t = 0; t < kThreads; ++t) {
    for (uint64_t j = 0; j < kDistinct; ++j) {
      uint64_t d = kDistinctBase + t * kDistinct + j;
      EXPECT_EQ(mem.Read64(PageBase(d)), Pattern(t, d));
      EXPECT_EQ(mem.Read64(PageBase(d) + 8), Pattern(t, d));
    }
  }
  EXPECT_EQ(mem.ResidentPages(), kShared + kThreads * kDistinct);
}

TEST(PhysMemTest, ReadsNeverMaterializePages) {
  PhysMem mem(kMemSize);
  // A missing leaf, then a missing page inside a present leaf.
  EXPECT_EQ(mem.Read64(PageBase(3)), 0u);
  mem.Write8(PageBase(kLeafPages + 1), 7);
  EXPECT_EQ(mem.Read64(PageBase(kLeafPages + 2)), 0u);
  EXPECT_EQ(mem.Read32(PageBase(kLeafPages + 3) + 4), 0u);
  EXPECT_EQ(mem.Read8(PageBase(kLeafPages + 4) + 9), 0u);
  std::array<uint8_t, kPageSize> out;
  out.fill(0xEE);
  EXPECT_FALSE(mem.ReadPage(kLeafPages + 5, &out));
  EXPECT_FALSE(mem.ReadPage(9, &out));
  EXPECT_EQ(out[0], 0xEE);  // untouched on a miss
  EXPECT_EQ(mem.ResidentPageIndices(), std::vector<uint64_t>{kLeafPages + 1});
}

TEST(PhysMemTest, ResidentPageIndicesAreSorted) {
  PhysMem mem(kMemSize);
  const std::vector<uint64_t> touched = {16383, 5, 700, 511, 512, 0, 9000, 6};
  for (uint64_t page : touched) {
    mem.Write32(PageBase(page), 1);
  }
  std::vector<uint64_t> want = touched;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(mem.ResidentPageIndices(), want);
  EXPECT_EQ(mem.ResidentPages(), touched.size());
}

TEST(PhysMemTest, WritePageAndDropPage) {
  PhysMem mem(kMemSize);
  std::array<uint8_t, kPageSize> in;
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<uint8_t>(i * 31 + 1);
  }
  mem.WritePage(1000, in.data());
  std::array<uint8_t, kPageSize> out{};
  ASSERT_TRUE(mem.ReadPage(1000, &out));
  EXPECT_EQ(out, in);
  EXPECT_EQ(mem.Read8(PageBase(1000) + 4095), in[4095]);

  mem.DropPage(1000);
  EXPECT_FALSE(mem.ReadPage(1000, &out));
  EXPECT_EQ(mem.Read64(PageBase(1000)), 0u);
  EXPECT_EQ(mem.ResidentPages(), 0u);
  mem.DropPage(1000);  // dropping a missing page (or leaf) is a no-op
  mem.DropPage(9999);
  EXPECT_EQ(mem.ResidentPages(), 0u);

  // A dropped page comes back zeroed, not with its old contents.
  mem.Write8(PageBase(1000), 1);
  ASSERT_TRUE(mem.ReadPage(1000, &out));
  EXPECT_EQ(out[1], 0u);
  EXPECT_EQ(out[4095], 0u);
}

TEST(PhysMemTest, DirtyBitmapDrainsSortedAndClears) {
  PhysMem mem(kMemSize);
  mem.Write64(PageBase(40), 1);  // before tracking: not recorded
  EXPECT_TRUE(mem.DrainDirtyPages().empty());
  mem.SetDirtyTracking(true);
  EXPECT_TRUE(mem.dirty_tracking());
  std::array<uint8_t, kPageSize> page{};
  mem.Write64(PageBase(16383), 1);
  mem.Write32(PageBase(64), 1);
  mem.Write8(PageBase(63), 1);
  mem.Write64(PageBase(64) + 8, 2);  // same page twice: reported once
  mem.ZeroPage(PageBase(0));
  mem.WritePage(700, page.data());
  mem.DropPage(12000);  // drops dirty the page too, resident or not
  EXPECT_EQ(mem.DrainDirtyPages(),
            (std::vector<uint64_t>{0, 63, 64, 700, 12000, 16383}));
  EXPECT_TRUE(mem.DrainDirtyPages().empty());

  mem.Write64(PageBase(5), 1);
  mem.SetDirtyTracking(true);  // (re)enabling starts from a clean bitmap
  EXPECT_TRUE(mem.DrainDirtyPages().empty());
  mem.Write64(PageBase(6), 1);
  mem.SetDirtyTracking(false);
  mem.Write64(PageBase(7), 1);
  EXPECT_TRUE(mem.DrainDirtyPages().empty());
}

TEST(PhysMemTest, DropAllPagesEmptiesResidentSetAndDirtyBitmap) {
  PhysMem mem(kMemSize);
  mem.SetDirtyTracking(true);
  mem.Write64(PageBase(2), 1);
  mem.Write64(PageBase(3000), 1);
  mem.DropAllPages();
  EXPECT_EQ(mem.ResidentPages(), 0u);
  EXPECT_EQ(mem.Read64(PageBase(2)), 0u);
  EXPECT_TRUE(mem.DrainDirtyPages().empty());
  mem.Write64(PageBase(4), 1);  // still usable, still tracking
  EXPECT_EQ(mem.DrainDirtyPages(), std::vector<uint64_t>{4});
}

using PageSet = std::map<uint64_t, std::array<uint8_t, kPageSize>>;

PageSet ResidentSet(const PhysMem& mem) {
  PageSet out;
  for (uint64_t index : mem.ResidentPageIndices()) {
    EXPECT_TRUE(mem.ReadPage(index, &out[index]));
  }
  return out;
}

TEST(PhysMemTest, SnapshotRestoreReproducesExactResidentSet) {
  constexpr uint64_t kStep = 10;
  snap::SnapSpec spec;
  spec.cfg = StackConfig::NestedNeve(false);
  spec.steps = 16;
  spec.store_span_pages = 32;

  snap::Image img;
  PageSet at_capture;
  snap::SnapHooks cap;
  cap.checkpoint_step = kStep;
  cap.checkpoint_out = &img;
  cap.on_step = [&](uint64_t step, const snap::SnapTargets& t) {
    if (step == kStep) {
      at_capture = ResidentSet(t.machine->mem());
    }
    return false;
  };
  snap::SnapRunner source(spec);
  ASSERT_TRUE(source.Run(cap).ok());
  ASSERT_FALSE(at_capture.empty());
  ASSERT_EQ(img.mem.pages.size(), at_capture.size());

  // The target holds a page the image does not; the restore must drop it
  // and install exactly the captured set, leaving no dirty bits behind.
  snap::SnapRunner target(spec);
  PhysMem& target_mem = target.stack().machine().mem();
  const Pa stray(target_mem.size() - kPageSize);
  ASSERT_EQ(at_capture.count(stray.PageIndex()), 0u);
  target_mem.SetDirtyTracking(true);
  target_mem.Write64(stray, 0xBAD);
  PageSet after_apply;
  bool dirty_clean = false;
  snap::SnapHooks res;
  res.resume_image = &img;
  res.resume_step = kStep;
  res.on_step = [&](uint64_t, const snap::SnapTargets& t) {
    after_apply = ResidentSet(t.machine->mem());
    dirty_clean = t.machine->mem().DrainDirtyPages().empty();
    return true;  // stop right after the restore
  };
  ASSERT_TRUE(target.Run(res).ok());
  EXPECT_TRUE(after_apply == at_capture);
  EXPECT_EQ(after_apply.size(), at_capture.size());
  EXPECT_TRUE(dirty_clean);
}

}  // namespace
}  // namespace neve
