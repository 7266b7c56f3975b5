// The lock-order detector (src/base/lock_order.h): AB/BA cycles
// and reentrant acquires panic with both acquisition stacks, and the
// acquisition graph -- keyed by lock *class* (name), not instance -- dumps
// byte-identically regardless of how many threads built it.
//
// Release builds compile the detector out of neve::Mutex, so this test links
// neve_base_lock_order, a detector-on build of src/base (tests/CMakeLists.txt),
// and its cases run in every build type.

#include "src/base/lock_order.h"

#include <cstddef>
#include <string>

#include "gtest/gtest.h"
#include "src/base/mutex.h"
#include "src/base/parallel.h"

namespace neve {
namespace {

void NestAThenBThenBThenA() {
  Mutex a{"test.dead_a"};
  Mutex b{"test.dead_b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // reverse nesting: the detector fires here
  }
}

TEST(LockOrderDeathTest, AbBaCyclePanics) {
  EXPECT_DEATH(NestAThenBThenBThenA(), "lock-order cycle");
}

TEST(LockOrderDeathTest, CycleReportCarriesBothAcquisitionStacks) {
  // The panic names the stack held at the violation...
  EXPECT_DEATH(NestAThenBThenBThenA(), "this thread holds: test.dead_b");
  // ...and the witness stack of the prior (legitimate) nesting.
  EXPECT_DEATH(NestAThenBThenBThenA(),
               "prior acquisition of 'test.dead_b' held: test.dead_a");
}

TEST(LockOrderDeathTest, ReentrantAcquirePanics) {
  EXPECT_DEATH(
      {
        Mutex m{"test.reentrant"};
        m.Lock();
        m.Lock();  // same class: self-deadlock, caught before blocking
      },
      "reentrant acquire of 'test.reentrant'");
}

TEST(LockOrderTest, CountsAcquisitionsAndEdges) {
  lock_order::ResetForTest();
  Mutex a{"test.count_a"};
  Mutex b{"test.count_b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::Acquisitions(), 2u);
  EXPECT_EQ(lock_order::Edges(), 1u);
  EXPECT_EQ(lock_order::GraphDump(), "test.count_a -> test.count_b\n");
  // Re-walking an established order adds no edges.
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::Acquisitions(), 4u);
  EXPECT_EQ(lock_order::Edges(), 1u);
}

TEST(LockOrderTest, TryLockRecordsAcquisitionButNoEdges) {
  lock_order::ResetForTest();
  Mutex a{"test.try_a"};
  Mutex b{"test.try_b"};
  MutexLock la(a);
  ASSERT_TRUE(b.TryLock());
  b.Unlock();
  // A successful TryLock cannot deadlock, so it contributes no ordering
  // edge -- but it is still a held lock (reentrancy is checked) and counts.
  EXPECT_EQ(lock_order::Acquisitions(), 2u);
  EXPECT_EQ(lock_order::Edges(), 0u);
}

TEST(LockOrderTest, ClassesAreKeyedByNameNotInstance) {
  lock_order::ResetForTest();
  // Two distinct instances of the same class, nested under distinct outer
  // instances, produce ONE edge: the graph describes the locking discipline,
  // not the heap.
  for (int i = 0; i < 2; ++i) {
    Mutex outer{"test.keyed_outer"};
    Mutex inner{"test.keyed_inner"};
    MutexLock lo(outer);
    MutexLock li(inner);
  }
  EXPECT_EQ(lock_order::Edges(), 1u);
  EXPECT_EQ(lock_order::GraphDump(),
            "test.keyed_outer -> test.keyed_inner\n");
}

std::string GraphDumpForThreads(unsigned threads) {
  lock_order::ResetForTest();
  ParallelFor(32, threads, [](size_t i) {
    Mutex outer{"test.graph_outer"};
    Mutex inner{"test.graph_inner"};
    Mutex leaf{"test.graph_leaf"};
    MutexLock lo(outer);
    if (i % 2 == 0) {
      MutexLock li(inner);
      MutexLock ll(leaf);
    } else {
      MutexLock ll(leaf);
    }
  });
  return lock_order::GraphDump();
}

TEST(LockOrderTest, GraphDumpByteIdenticalAcrossThreadCounts) {
  // The --threads= byte-identity contract extends to the detector: the
  // acquisition graph depends on which nestings the program performs, never
  // on which thread (or how many) performed them.
  std::string d1 = GraphDumpForThreads(1);
  std::string d2 = GraphDumpForThreads(2);
  std::string d8 = GraphDumpForThreads(8);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
  EXPECT_EQ(d1,
            "test.graph_inner -> test.graph_leaf\n"
            "test.graph_outer -> test.graph_inner\n"
            "test.graph_outer -> test.graph_leaf\n");
}

TEST(LockOrderTest, UnlockOutOfOrderIsAccepted) {
  lock_order::ResetForTest();
  Mutex a{"test.order_a"};
  Mutex b{"test.order_b"};
  a.Lock();
  b.Lock();
  a.Unlock();  // non-LIFO release: legal, held set shrinks correctly
  b.Unlock();
  {
    MutexLock la(a);  // would be a false reentrancy if the held set leaked
  }
  EXPECT_EQ(lock_order::Acquisitions(), 3u);
}

}  // namespace
}  // namespace neve
