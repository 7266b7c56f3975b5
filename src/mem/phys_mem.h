// Sparse physical memory backing the simulated machine.
//
// Pages materialize on first write; the simulator never cares about the
// host's memory layout, only that every PA within the configured size reads
// back what was last written. A bump allocator hands out fresh pages for
// page tables, deferred access pages, and guest RAM carve-outs.
//
// Storage is a two-level page directory: one atomic leaf pointer per 2 MiB
// of address space (sized from the machine's memory size), each leaf holding
// 512 atomic page pointers. Leaves and pages are installed on first write
// with a compare-exchange, so SMP-engine lanes may first-touch the same page
// concurrently and exactly one allocation wins. A read is two acquire loads
// and takes no lock; a read of a page never written returns zero and
// creates nothing. Untouched 2 MiB ranges cost one null pointer.

#ifndef NEVE_SRC_MEM_PHYS_MEM_H_
#define NEVE_SRC_MEM_PHYS_MEM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/mem/addr.h"
#include "src/mem/mem_io.h"

namespace neve {

namespace snap {
class Serializer;  // src/snap: restores PageAllocator cursors
}  // namespace snap

class PhysMem final : public MemIo {
 public:
  // size must be page aligned.
  explicit PhysMem(uint64_t size_bytes);
  ~PhysMem() override;

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  uint64_t size() const { return size_; }
  bool Contains(Pa pa, uint64_t bytes) const override {
    return pa.value + bytes <= size_ && pa.value + bytes >= pa.value;
  }

  uint64_t Read64(Pa pa) const override;
  void Write64(Pa pa, uint64_t value) override;
  uint32_t Read32(Pa pa) const;
  void Write32(Pa pa, uint32_t value);
  uint8_t Read8(Pa pa) const;
  void Write8(Pa pa, uint8_t value);

  // Zeroes an entire page.
  void ZeroPage(Pa page_base) override;

  // Number of pages actually materialized (for tests / stats).
  size_t ResidentPages() const { return ResidentPageIndices().size(); }

  // --- host-side page access (checkpoint / restore / migration) -----------
  // None of these charge cycles or appear to the guest; they are the tools
  // the snap layer and HostKvm::CheckpointVm use to move whole pages.
  // DropPage and DropAllPages free page storage, so they run only while no
  // other thread touches this memory (single-threaded host drivers).

  // Sorted indices of every materialized page.
  std::vector<uint64_t> ResidentPageIndices() const;

  // Copies one page out; false (and *out untouched) when not resident.
  bool ReadPage(uint64_t page_index, std::array<uint8_t, kPageSize>* out) const;

  // Materializes and overwrites one page (counts as a dirtying write).
  void WritePage(uint64_t page_index, const uint8_t* data);

  // Returns the page to implicit-zero (not resident) state.
  void DropPage(uint64_t page_index);

  // Returns every page to implicit-zero state and clears the dirty bitmap
  // (snapshot restore, before it installs the captured resident set).
  void DropAllPages();

  // --- dirty-page tracking (migration pre-copy) ---------------------------
  // While enabled, every write records its page index in an atomic bitmap.
  // Pure host bookkeeping: no cycles, no guest-visible effect. Toggled only
  // from single-threaded migration drivers, never while SMP lanes run.
  void SetDirtyTracking(bool on);
  bool dirty_tracking() const { return dirty_enabled_; }

  // Sorted indices dirtied since the last drain; clears the bitmap.
  std::vector<uint64_t> DrainDirtyPages();

 private:
  using Page = std::array<uint8_t, kPageSize>;

  static constexpr uint64_t kLeafShift = 9;  // 512 pages (2 MiB) per leaf
  static constexpr uint64_t kLeafPages = uint64_t{1} << kLeafShift;

  struct Leaf {
    std::array<std::atomic<Page*>, kLeafPages> pages{};
  };

  uint64_t num_pages() const { return size_ >> kPageShift; }
  uint64_t num_leaves() const {
    return (num_pages() + kLeafPages - 1) >> kLeafShift;
  }
  uint64_t dirty_words() const { return (num_pages() + 63) / 64; }

  // The page's slot, creating its leaf when `create` (nullptr otherwise).
  std::atomic<Page*>* Slot(uint64_t page_index, bool create) const;
  Page& PageFor(Pa pa);
  const Page* PageForRead(Pa pa) const;
  void CheckRange(Pa pa, uint64_t bytes) const;
  void MarkDirty(uint64_t page_index);

  uint64_t size_;  // not-snapshotted: fixed by MachineConfig, verified on apply
  // not-snapshotted: storage for the page set, which the serializer moves
  // through ResidentPageIndices/ReadPage/DropAllPages/WritePage.
  std::unique_ptr<std::atomic<Leaf*>[]> leaves_;
  // Dirty tracking. The enable flag is read on the write fast path; it only
  // ever changes while the machine is single-threaded (migration drivers
  // toggle it between guest steps). The bitmap (one bit per page) is
  // allocated the first time tracking is enabled.
  bool dirty_enabled_ = false;  // not-snapshotted: migration-driver toggle
  std::unique_ptr<std::atomic<uint64_t>[]> dirty_;  // not-snapshotted: ditto
};

// Hands out fresh page-aligned physical pages from a region of PhysMem.
class PageAllocator {
 public:
  // Allocates from [start, start+size) within mem. Region must be page
  // aligned and inside mem.
  PageAllocator(MemIo* mem, Pa start, uint64_t size);

  // Returns a zeroed page. Aborts if the region is exhausted (the simulator
  // sizes regions generously; exhaustion is a configuration bug).
  Pa AllocPage();

  uint64_t PagesAllocated() const {
    MutexLock lock(mu_);
    return (next_ - start_.value) >> kPageShift;
  }
  uint64_t PagesRemaining() const {
    MutexLock lock(mu_);
    return (end_ - next_) >> kPageShift;
  }

 private:
  friend class snap::Serializer;

  MemIo* mem_;  // not-snapshotted: host wiring
  Pa start_;    // not-snapshotted: fixed region geometry, verified on apply
  // Guards the bump pointer: SMP-engine lanes allocate page-table pages
  // concurrently (shadow fixups). NOTE: this makes the *addresses* handed
  // out dependent on lane interleaving -- byte-identity digests must avoid
  // mixing in Pa values (DESIGN.md 6j); page *contents* stay deterministic.
  mutable Mutex mu_{"mem.page_alloc"};
  uint64_t next_ GUARDED_BY(mu_);
  uint64_t end_;  // not-snapshotted: fixed region geometry, verified on apply
};

}  // namespace neve

#endif  // NEVE_SRC_MEM_PHYS_MEM_H_
