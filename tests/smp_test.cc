// SMP-engine end-to-end tests: multi-vCPU guests (and nested guests) on real
// host threads, SGI/IPI fan-out between vCPUs, confined guest faults for
// malformed SGIs and rendezvous deadlocks, watchdog behavior across idle
// waits, and the hard invariant -- byte-identical results at every --threads
// value.

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/gic/gic.h"
#include "src/workload/microbench.h"
#include "src/workload/stacks.h"

namespace neve {
namespace {

using testing::HasSubstr;

// --- SGI fan-out between vCPUs ------------------------------------------------

TEST(SmpTest, SgiFanOutReachesEverySibling) {
  ArmStack stack(StackConfig::Vm(), 3);
  std::vector<GuestMain> bodies(3);
  bodies[0] = [&](GuestEnv& env) {
    env.WriteSys(SysReg::kICC_SGI1R_EL1, SgiR::Make(0b110, /*sgi_id=*/7));
  };
  for (int k = 1; k < 3; ++k) {
    bodies[static_cast<size_t>(k)] = [&stack, k](GuestEnv& env) {
      Vcpu& me = stack.RendezvousVcpu(k);
      env.SmpWaitUntil([&me] { return me.virqs_enqueued >= 1; });
    };
  }
  std::vector<Status> statuses = stack.RunSmp(std::move(bodies), /*threads=*/3);
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok()) << s.message();
  }
  EXPECT_EQ(stack.RendezvousVcpu(0).virqs_enqueued, 0u);
  EXPECT_EQ(stack.RendezvousVcpu(1).virqs_enqueued, 1u);
  EXPECT_EQ(stack.RendezvousVcpu(2).virqs_enqueued, 1u);
}

TEST(SmpTest, SelfIpiStaysOnTheSendingLane) {
  ArmStack stack(StackConfig::Vm(), 2);
  std::vector<GuestMain> bodies(2);
  bodies[0] = [](GuestEnv& env) {
    env.WriteSys(SysReg::kICC_SGI1R_EL1, SgiR::Make(0b01, /*sgi_id=*/3));
  };
  bodies[1] = [](GuestEnv&) {};
  std::vector<Status> statuses = stack.RunSmp(std::move(bodies), /*threads=*/2);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  // The self-IPI takes the same-lane direct path: enqueued immediately, no
  // cross-lane deferral needed.
  EXPECT_EQ(stack.RendezvousVcpu(0).virqs_enqueued, 1u);
  EXPECT_EQ(stack.RendezvousVcpu(1).virqs_enqueued, 0u);
}

// --- confined faults for malformed SGIs ----------------------------------------

TEST(SmpTest, OutOfRangeTargetMaskConfinesSenderAndTearsDownWaiters) {
  ArmStack stack(StackConfig::Vm(), 2);
  std::vector<GuestMain> bodies(2);
  // Lane 0 parks first (the admission gate guarantees it); lane 1 then
  // targets a nonexistent vCPU. The sender gets the confined fault; the
  // parked waiter's rendezvous can never complete and is torn down.
  bodies[0] = [&stack](GuestEnv& env) {
    Vcpu& me = stack.RendezvousVcpu(0);
    env.SmpWaitUntil([&me] { return me.virqs_enqueued >= 1; });
  };
  bodies[1] = [](GuestEnv& env) {
    env.WriteSys(SysReg::kICC_SGI1R_EL1, SgiR::Make(0b100, /*sgi_id=*/1));
  };
  std::vector<Status> statuses = stack.RunSmp(std::move(bodies), /*threads=*/2);
  EXPECT_THAT(statuses[1].message(), HasSubstr("sgi_bad_target"));
  EXPECT_THAT(statuses[0].message(), HasSubstr("smp_sibling_fault"));
}

TEST(SmpTest, ReservedSgiBitsConfineTheSender) {
  // SgiR::Make cannot produce reserved bits; a raw register write can. The
  // old code silently truncated them -- now the malformed encoding is a
  // confined guest fault before any IPI is routed.
  ArmStack stack(StackConfig::Vm(), 1);
  std::vector<GuestMain> bodies(1);
  bodies[0] = [](GuestEnv& env) {
    env.WriteSys(SysReg::kICC_SGI1R_EL1, (1ull << 20) | 0b1);
  };
  std::vector<Status> statuses = stack.RunSmp(std::move(bodies), /*threads=*/1);
  EXPECT_THAT(statuses[0].message(), HasSubstr("sgi_malformed"));
  EXPECT_EQ(stack.RendezvousVcpu(0).virqs_enqueued, 0u);
}

TEST(SmpTest, RendezvousDeadlockIsConfinedNotHung) {
  ArmStack stack(StackConfig::Vm(), 2);
  std::vector<GuestMain> bodies(2);
  for (int k = 0; k < 2; ++k) {
    bodies[static_cast<size_t>(k)] = [&stack, k](GuestEnv& env) {
      Vcpu& me = stack.RendezvousVcpu(k);
      env.SmpWaitUntil([&me] { return me.virqs_enqueued >= 1; });
    };
  }
  std::vector<Status> statuses = stack.RunSmp(std::move(bodies), /*threads=*/2);
  EXPECT_THAT(statuses[0].message(), HasSubstr("smp_deadlock"));
  EXPECT_FALSE(statuses[1].ok());
}

// --- the cooperative path -----------------------------------------------------

TEST(SmpTest, CooperativeSmpWaitIsOneHypercallWhenSatisfied) {
  // Off-engine, cross-vCPU delivery ran synchronously inside the send, so a
  // satisfied predicate costs exactly the same hypercall trap the engine
  // path takes -- trap counts match across threading modes.
  ArmStack stack(StackConfig::Vm(), 1);
  uint64_t traps_before = 0;
  Status s = stack.Run([&](GuestEnv& env) {
    traps_before = stack.TotalTrapsToHost();
    env.SmpWaitUntil([] { return true; });
  });
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(stack.TotalTrapsToHost(), traps_before + 1);
}

TEST(SmpTest, CooperativeUnsatisfiedPredicateIsAGuestDeadlock) {
  ArmStack stack(StackConfig::Vm(), 1);
  Status s = stack.Run(
      [](GuestEnv& env) { env.SmpWaitUntil([] { return false; }); });
  EXPECT_THAT(s.message(), HasSubstr("smp_wait_stuck"));
}

// --- nested SMP ----------------------------------------------------------------

TEST(SmpTest, FourVcpuNestedRendezvousCompletes) {
  constexpr int kVcpus = 4;
  constexpr int kRounds = 3;
  ArmStack stack(StackConfig::NestedNeve(true), kVcpus);
  std::vector<GuestMain> bodies;
  for (int k = 0; k < kVcpus; ++k) {
    bodies.push_back(stack.MakeIpiRendezvous(k, kVcpus, kRounds));
  }
  std::vector<Status> statuses =
      stack.RunSmp(std::move(bodies), /*threads=*/kVcpus);
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok()) << s.message();
  }
  // Every L2 vCPU received exactly one SGI per sibling per round.
  for (int k = 0; k < kVcpus; ++k) {
    EXPECT_EQ(stack.RendezvousVcpu(k).virqs_enqueued,
              static_cast<uint64_t>(kRounds * (kVcpus - 1)))
        << "lane " << k;
  }
}

TEST(SmpTest, ObservedOrFaultInjectedStackFailsEveryLaneAndSurvives) {
  // The engine cannot run lanes under the obs layer or a fault campaign;
  // RunSmp reports that per lane instead of aborting the process.
  constexpr int kVcpus = 4;
  auto rendezvous = [](ArmStack& stack) {
    std::vector<GuestMain> bodies;
    for (int k = 0; k < kVcpus; ++k) {
      bodies.push_back(stack.MakeIpiRendezvous(k, kVcpus, /*rounds=*/2));
    }
    return stack.RunSmp(std::move(bodies), /*threads=*/2);
  };
  ArmStack observed(StackConfig::NestedNeve(true), kVcpus);
  observed.machine().obs().set_enabled(true);
  std::vector<Status> statuses = rendezvous(observed);
  ASSERT_EQ(statuses.size(), static_cast<size_t>(kVcpus));
  for (const Status& s : statuses) {
    EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
    EXPECT_THAT(s.message(), HasSubstr("observability"));
  }

  StackConfig faulty = StackConfig::NestedNeve(true);
  faulty.fault.enabled = true;
  faulty.fault.seed = 1;
  ArmStack injected(faulty, kVcpus);
  for (const Status& s : rendezvous(injected)) {
    EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
    EXPECT_THAT(s.message(), HasSubstr("fault injection"));
  }

  // Nothing ran, so the stack is still usable once the obs layer is off.
  observed.machine().obs().set_enabled(false);
  for (const Status& s : rendezvous(observed)) {
    EXPECT_TRUE(s.ok()) << s.message();
  }
}

// --- shadow Stage-2 invalidation broadcast --------------------------------------

TEST(SmpTest, GuestTlbiBroadcastsShadowS2FlushToAllVcpus) {
  // A TLBI from any guest level of a multi-vCPU nested stack must invalidate
  // *every* vCPU's shadow Stage-2 (the host's per-vCPU shadows all cache the
  // same guest translations) -- the paper's TLB-shootdown path.
  ArmStack stack(StackConfig::NestedV83(false), 2);
  Status s = stack.Run([](GuestEnv& env) { env.TlbiAll(); },
                       [](GuestEnv& env) { env.ParkRunning(); });
  ASSERT_TRUE(s.ok()) << s.message();
  int shadows_seen = 0;
  for (int i = 0; i < 2; ++i) {
    for (auto& [vvttbr, shadow] : stack.vm().vcpu(i).shadows) {
      ++shadows_seen;
      EXPECT_GE(shadow->flushes(), 1u) << "vcpu " << i;
    }
  }
  EXPECT_GE(shadows_seen, 2);  // both vCPUs ran nested contexts
}

TEST(SmpTest, SingleVcpuNestedStacksDoNotTrapTlbi) {
  // The TLBI trap is armed only for multi-vCPU guest-hypervisor VMs; the
  // single-vCPU Table-1 configurations keep their exact trap counts.
  ArmStack stack(StackConfig::NestedV83(false), 1);
  uint64_t traps_before = 0;
  uint64_t traps_after = 0;
  Status s = stack.Run([&](GuestEnv& env) {
    traps_before = stack.TotalTrapsToHost();
    env.TlbiAll();
    traps_after = stack.TotalTrapsToHost();
  });
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(traps_after, traps_before);
}

// --- watchdog vs rendezvous idle time ------------------------------------------

TEST(SmpTest, WatchdogIgnoresRendezvousIdleTime) {
  // Token ring: lane k waits for its predecessor's IPI, computes, then
  // passes the token on. The last lane's clock advances past every
  // predecessor's work through *idle-wait* charges -- far beyond the
  // watchdog budget -- while its own active work stays well inside it. The
  // watchdog must only meter active guest work (AdvanceTo extends the
  // deadline), or any cross-vCPU rendezvous under a watchdog kills the VM.
  constexpr int kLanes = 4;
  constexpr uint32_t kWork = 30'000;
  StackConfig cfg = StackConfig::Vm();
  cfg.fault.watchdog_budget = 50'000;  // > kWork, << kLanes * kWork
  ArmStack stack(cfg, kLanes);
  std::vector<GuestMain> bodies(kLanes);
  for (int k = 0; k < kLanes; ++k) {
    bodies[static_cast<size_t>(k)] = [&stack, k](GuestEnv& env) {
      Vcpu& me = stack.RendezvousVcpu(k);
      if (k > 0) {
        env.SmpWaitUntil([&me] { return me.virqs_enqueued >= 1; });
      }
      env.Compute(kWork);
      if (k + 1 < kLanes) {
        env.WriteSys(SysReg::kICC_SGI1R_EL1,
                     SgiR::Make(static_cast<uint16_t>(1u << (k + 1)),
                                /*sgi_id=*/2));
      }
    };
  }
  std::vector<Status> statuses =
      stack.RunSmp(std::move(bodies), /*threads=*/kLanes);
  for (int k = 0; k < kLanes; ++k) {
    EXPECT_TRUE(statuses[static_cast<size_t>(k)].ok())
        << "lane " << k << ": " << statuses[static_cast<size_t>(k)].message();
  }
}

// --- determinism: byte identity across --threads --------------------------------

// Everything observable about a finished SMP run, serialized. Pa values are
// deliberately absent: page-allocation *addresses* are interleaving-dependent
// (DESIGN.md 6j); simulated time, trap counts, and delivery counts are not.
std::string SmpRunDigest(ArmStack& stack, const std::vector<Status>& statuses,
                         int num_lanes) {
  std::string d;
  for (int i = 0; i < stack.machine().num_cpus(); ++i) {
    d += "cpu" + std::to_string(i) + "=" +
         std::to_string(stack.machine().cpu(i).cycles()) + ";traps=" +
         std::to_string(stack.machine().cpu(i).trace().traps_to_el2()) + "\n";
  }
  for (int k = 0; k < num_lanes; ++k) {
    d += "lane" + std::to_string(k) + "=" +
         (statuses[static_cast<size_t>(k)].ok()
              ? std::string("ok")
              : statuses[static_cast<size_t>(k)].message()) +
         ";virqs=" + std::to_string(stack.RendezvousVcpu(k).virqs_enqueued) +
         "\n";
  }
  return d;
}

std::string RunRendezvousAt(const StackConfig& cfg, int vcpus, int rounds,
                            int threads) {
  ArmStack stack(cfg, vcpus);
  std::vector<GuestMain> bodies;
  for (int k = 0; k < vcpus; ++k) {
    bodies.push_back(stack.MakeIpiRendezvous(k, vcpus, rounds));
  }
  std::vector<Status> statuses = stack.RunSmp(std::move(bodies), threads);
  return SmpRunDigest(stack, statuses, vcpus);
}

TEST(SmpDeterminismTest, PlainVmRendezvousIsByteIdenticalAcrossThreadCounts) {
  std::string at1 = RunRendezvousAt(StackConfig::Vm(), 4, 3, /*threads=*/1);
  std::string at2 = RunRendezvousAt(StackConfig::Vm(), 4, 3, /*threads=*/2);
  std::string at8 = RunRendezvousAt(StackConfig::Vm(), 4, 3, /*threads=*/8);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
  EXPECT_NE(at1.find("virqs=9"), std::string::npos) << at1;
}

TEST(SmpDeterminismTest, NestedRendezvousIsByteIdenticalAcrossThreadCounts) {
  for (StackConfig cfg :
       {StackConfig::NestedNeve(true), StackConfig::NestedV83(true)}) {
    std::string at1 = RunRendezvousAt(cfg, 4, 2, /*threads=*/1);
    std::string at2 = RunRendezvousAt(cfg, 4, 2, /*threads=*/2);
    std::string at8 = RunRendezvousAt(cfg, 4, 2, /*threads=*/8);
    EXPECT_EQ(at1, at2) << (cfg.neve ? "neve" : "v8.3");
    EXPECT_EQ(at1, at8) << (cfg.neve ? "neve" : "v8.3");
  }
}

TEST(SmpDeterminismTest, RepeatedRunsAreByteIdentical) {
  std::string a =
      RunRendezvousAt(StackConfig::NestedNeve(true), 4, 2, /*threads=*/4);
  std::string b =
      RunRendezvousAt(StackConfig::NestedNeve(true), 4, 2, /*threads=*/4);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace neve
