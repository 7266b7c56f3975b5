#include "src/mem/phys_mem.h"

#include <bit>
#include <cstring>

#include "src/base/bits.h"
#include "src/base/status.h"

namespace neve {

PhysMem::PhysMem(uint64_t size_bytes) : size_(size_bytes) {
  NEVE_CHECK_MSG(IsAligned(size_bytes, kPageSize), "size must be page aligned");
  leaves_ = std::make_unique<std::atomic<Leaf*>[]>(num_leaves());
}

PhysMem::~PhysMem() {
  DropAllPages();
  for (uint64_t l = 0; l < num_leaves(); ++l) {
    delete leaves_[l].load(std::memory_order_relaxed);
  }
}

void PhysMem::CheckRange(Pa pa, uint64_t bytes) const {
  NEVE_CHECK_MSG(Contains(pa, bytes), "PA out of range: 0x" +
                                          std::to_string(pa.value) + " size " +
                                          std::to_string(size_));
  // Accesses must not straddle a page boundary (hardware would split them;
  // simulator callers always use naturally aligned accesses).
  NEVE_CHECK_MSG(pa.PageOffset() + bytes <= kPageSize, "access crosses page");
}

// Installs `fresh` into an empty slot unless another thread got there first;
// returns whichever pointer the slot holds afterwards and frees the loser.
template <typename T>
static T* InstallOnce(std::atomic<T*>& slot, std::unique_ptr<T> fresh) {
  T* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh.release();
  }
  return expected;
}

std::atomic<PhysMem::Page*>* PhysMem::Slot(uint64_t page_index,
                                           bool create) const {
  std::atomic<Leaf*>& leaf_slot = leaves_[page_index >> kLeafShift];
  Leaf* leaf = leaf_slot.load(std::memory_order_acquire);
  if (leaf == nullptr) {
    if (!create) {
      return nullptr;
    }
    leaf = InstallOnce(leaf_slot, std::make_unique<Leaf>());
  }
  return &leaf->pages[page_index & (kLeafPages - 1)];
}

PhysMem::Page& PhysMem::PageFor(Pa pa) {
  std::atomic<Page*>& slot = *Slot(pa.PageIndex(), /*create=*/true);
  Page* page = slot.load(std::memory_order_acquire);
  if (page == nullptr) {
    page = InstallOnce(slot, std::make_unique<Page>());  // zero-filled
  }
  return *page;
}

const PhysMem::Page* PhysMem::PageForRead(Pa pa) const {
  const std::atomic<Page*>* slot = Slot(pa.PageIndex(), /*create=*/false);
  return slot == nullptr ? nullptr : slot->load(std::memory_order_acquire);
}

void PhysMem::MarkDirty(uint64_t page_index) {
  dirty_[page_index >> 6].fetch_or(uint64_t{1} << (page_index & 63),
                                   std::memory_order_relaxed);
}

std::vector<uint64_t> PhysMem::ResidentPageIndices() const {
  std::vector<uint64_t> out;
  for (uint64_t l = 0; l < num_leaves(); ++l) {
    const Leaf* leaf = leaves_[l].load(std::memory_order_acquire);
    if (leaf == nullptr) {
      continue;
    }
    for (uint64_t i = 0; i < kLeafPages; ++i) {
      if (leaf->pages[i].load(std::memory_order_acquire) != nullptr) {
        out.push_back((l << kLeafShift) | i);
      }
    }
  }
  return out;
}

bool PhysMem::ReadPage(uint64_t page_index,
                       std::array<uint8_t, kPageSize>* out) const {
  Pa base(page_index << kPageShift);
  CheckRange(base, kPageSize);
  const Page* page = PageForRead(base);
  if (page == nullptr) {
    return false;
  }
  *out = *page;
  return true;
}

void PhysMem::WritePage(uint64_t page_index, const uint8_t* data) {
  Pa base(page_index << kPageShift);
  CheckRange(base, kPageSize);
  Page& page = PageFor(base);
  std::memcpy(page.data(), data, kPageSize);
  if (dirty_enabled_) {
    MarkDirty(page_index);
  }
}

void PhysMem::DropPage(uint64_t page_index) {
  CheckRange(Pa(page_index << kPageShift), kPageSize);
  std::atomic<Page*>* slot = Slot(page_index, /*create=*/false);
  if (slot != nullptr) {
    delete slot->exchange(nullptr, std::memory_order_acq_rel);
  }
  if (dirty_enabled_) {
    MarkDirty(page_index);
  }
}

void PhysMem::DropAllPages() {
  for (uint64_t l = 0; l < num_leaves(); ++l) {
    Leaf* leaf = leaves_[l].load(std::memory_order_acquire);
    if (leaf == nullptr) {
      continue;
    }
    for (std::atomic<Page*>& slot : leaf->pages) {
      delete slot.exchange(nullptr, std::memory_order_acq_rel);
    }
  }
  DrainDirtyPages();
}

void PhysMem::SetDirtyTracking(bool on) {
  if (on && dirty_ == nullptr) {
    dirty_ = std::make_unique<std::atomic<uint64_t>[]>(dirty_words());
  }
  dirty_enabled_ = on;
  DrainDirtyPages();
}

std::vector<uint64_t> PhysMem::DrainDirtyPages() {
  std::vector<uint64_t> out;
  if (dirty_ == nullptr) {
    return out;
  }
  for (uint64_t w = 0; w < dirty_words(); ++w) {
    uint64_t bits = dirty_[w].exchange(0, std::memory_order_relaxed);
    while (bits != 0) {
      out.push_back(w * 64 + static_cast<uint64_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return out;
}

uint64_t PhysMem::Read64(Pa pa) const {
  CheckRange(pa, 8);
  const Page* page = PageForRead(pa);
  if (page == nullptr) {
    return 0;
  }
  uint64_t v = 0;
  std::memcpy(&v, page->data() + pa.PageOffset(), 8);
  return v;
}

void PhysMem::Write64(Pa pa, uint64_t value) {
  CheckRange(pa, 8);
  std::memcpy(PageFor(pa).data() + pa.PageOffset(), &value, 8);
  if (dirty_enabled_) {
    MarkDirty(pa.PageIndex());
  }
}

uint32_t PhysMem::Read32(Pa pa) const {
  CheckRange(pa, 4);
  const Page* page = PageForRead(pa);
  if (page == nullptr) {
    return 0;
  }
  uint32_t v = 0;
  std::memcpy(&v, page->data() + pa.PageOffset(), 4);
  return v;
}

void PhysMem::Write32(Pa pa, uint32_t value) {
  CheckRange(pa, 4);
  std::memcpy(PageFor(pa).data() + pa.PageOffset(), &value, 4);
  if (dirty_enabled_) {
    MarkDirty(pa.PageIndex());
  }
}

uint8_t PhysMem::Read8(Pa pa) const {
  CheckRange(pa, 1);
  const Page* page = PageForRead(pa);
  return page == nullptr ? 0 : (*page)[pa.PageOffset()];
}

void PhysMem::Write8(Pa pa, uint8_t value) {
  CheckRange(pa, 1);
  PageFor(pa)[pa.PageOffset()] = value;
  if (dirty_enabled_) {
    MarkDirty(pa.PageIndex());
  }
}

void PhysMem::ZeroPage(Pa page_base) {
  NEVE_CHECK(IsAligned(page_base.value, kPageSize));
  CheckRange(page_base, kPageSize);
  PageFor(page_base).fill(0);
  if (dirty_enabled_) {
    MarkDirty(page_base.PageIndex());
  }
}

PageAllocator::PageAllocator(MemIo* mem, Pa start, uint64_t size)
    : mem_(mem), start_(start), next_(start.value), end_(start.value + size) {
  NEVE_CHECK(mem != nullptr);
  NEVE_CHECK(IsAligned(start.value, kPageSize));
  NEVE_CHECK(IsAligned(size, kPageSize));
  NEVE_CHECK_MSG(mem->Contains(start, size), "allocator region outside mem");
}

Pa PageAllocator::AllocPage() {
  Pa page(0);
  {
    MutexLock lock(mu_);
    NEVE_CHECK_MSG(next_ < end_, "page allocator exhausted");
    page = Pa(next_);
    next_ += kPageSize;
  }
  // Zero outside the lock: the page is ours.
  mem_->ZeroPage(page);
  return page;
}

}  // namespace neve
