#include "src/workload/stacks.h"

#include <utility>

#include "src/base/status.h"
#include "src/gic/gic.h"
#include "src/hyp/world_switch.h"
#include "src/sim/smp.h"

namespace neve {

ArmStack::ArmStack(const StackConfig& cfg, int num_cpus)
    : cfg_(cfg), device_(SwCost::kDeviceIo) {
  MachineConfig mc;
  mc.num_cpus = num_cpus;
  mc.features =
      cfg.neve ? ArchFeatures::Armv84Neve() : ArchFeatures::Armv83Nv();
  mc.features.neve_deferred = cfg.neve_deferred;
  mc.features.neve_redirect = cfg.neve_redirect;
  mc.features.neve_cached = cfg.neve_cached;
  mc.fault = cfg.fault;
  mc.batch = cfg.batch && BenchBatchMode();
  machine_ = std::make_unique<Machine>(mc);
  l0_ = std::make_unique<HostKvm>(machine_.get(), HostKvmConfig{});

  VmConfig vc;
  vc.num_vcpus = num_cpus;
  if (cfg.nested) {
    vc.name = "l1";
    vc.ram_size = 64ull << 20;
    vc.virtual_el2 = true;
    vc.expose_neve = cfg.neve;
    vc.guest_vhe = cfg.guest_vhe;
  } else {
    vc.name = "vm";
    vc.ram_size = 16ull << 20;
  }
  vm_ = l0_->CreateVm(vc);
  if (!cfg.nested) {
    vm_->AddMmioRange(Ipa(kBenchDeviceBase), kPageSize, &device_);
  }
}

ArmStack::~ArmStack() = default;

Vcpu& ArmStack::MeasuredVcpu() { return vm_->vcpu(0); }

Status ArmStack::Run(GuestMain body, GuestMain receiver) {
  NEVE_CHECK(body);
  if (!cfg_.nested) {
    if (receiver) {
      vm_->vcpu(1).main_sw.main = std::move(receiver);
      Status s = l0_->RunVcpu(vm_->vcpu(1), /*pcpu=*/1);
      if (!s.ok()) {
        return s;
      }
    }
    vm_->vcpu(0).main_sw.main = std::move(body);
    return l0_->RunVcpu(vm_->vcpu(0), /*pcpu=*/0);
  }

  GuestKvmConfig gc{.vhe = cfg_.guest_vhe, .gicv2_mmio = cfg_.gicv2_mmio};
  if (receiver) {
    // Boot the guest hypervisor on vCPU 1 and park the nested receiver.
    vm_->vcpu(1).main_sw.main = [&, receiver](GuestEnv& env) {
      l1_ = std::make_unique<GuestKvm>(&env, machine_.get(), gc);
      l1_->SetMmioBackend(&device_);
      VmConfig nvc;
      nvc.name = "l2";
      nvc.num_vcpus = 2;
      nvc.ram_size = 8ull << 20;
      nvm_ = l1_->CreateVm(nvc);
      l1_->RunVcpu(env, nvm_->vcpu(1), receiver);
    };
    Status s = l0_->RunVcpu(vm_->vcpu(1), /*pcpu=*/1);
    if (!s.ok()) {
      return s;
    }
    vm_->vcpu(0).main_sw.main = [&, body](GuestEnv& env) {
      l1_->AttachVcpu(env);
      l1_->RunVcpu(env, nvm_->vcpu(0), body);
    };
    return l0_->RunVcpu(vm_->vcpu(0), /*pcpu=*/0);
  }

  vm_->vcpu(0).main_sw.main = [&, body](GuestEnv& env) {
    l1_ = std::make_unique<GuestKvm>(&env, machine_.get(), gc);
    l1_->SetMmioBackend(&device_);
    VmConfig nvc;
    nvc.name = "l2";
    nvc.ram_size = 8ull << 20;
    nvm_ = l1_->CreateVm(nvc);
    l1_->RunVcpu(env, nvm_->vcpu(0), body);
  };
  return l0_->RunVcpu(vm_->vcpu(0), /*pcpu=*/0);
}

std::vector<Status> ArmStack::RunSmp(std::vector<GuestMain> bodies,
                                     int threads) {
  const int n = static_cast<int>(bodies.size());
  NEVE_CHECK_MSG(n >= 1 && n <= machine_->num_cpus(),
                 "one body per vCPU, at most one per pCPU");
  std::vector<Status> statuses(static_cast<size_t>(n), Status::Ok());
  // The engine refuses both (SmpEngine::Run checks them again); a caller's
  // configuration mistake fails the run, not the process.
  if (machine_->obs().enabled()) {
    statuses.assign(statuses.size(),
                    Status::FailedPrecondition(
                        "RunSmp requires the observability layer disabled"));
    return statuses;
  }
  if (machine_->config().fault.enabled) {
    statuses.assign(statuses.size(),
                    Status::FailedPrecondition(
                        "RunSmp is incompatible with fault injection"));
    return statuses;
  }

  if (!cfg_.nested) {
    for (int k = 0; k < n; ++k) {
      vm_->vcpu(k).main_sw.main = std::move(bodies[static_cast<size_t>(k)]);
    }
  } else {
    GuestKvmConfig gc{.vhe = cfg_.guest_vhe, .gicv2_mmio = cfg_.gicv2_mmio};
    // Lane 0 boots the guest hypervisor and the n-vCPU nested VM. The
    // engine admits lane k+1 only after lane k first blocks (or finishes),
    // and the booter's first block is inside its own L2 body -- after
    // CreateVm -- so l1_/nvm_ are visible to every sibling without locks.
    vm_->vcpu(0).main_sw.main = [this, gc, n,
                                 body = std::move(bodies[0])](GuestEnv& env) {
      l1_ = std::make_unique<GuestKvm>(&env, machine_.get(), gc);
      l1_->SetMmioBackend(&device_);
      VmConfig nvc;
      nvc.name = "l2";
      nvc.num_vcpus = n;
      nvc.ram_size = 8ull << 20;
      nvm_ = l1_->CreateVm(nvc);
      l1_->RunVcpu(env, nvm_->vcpu(0), body);
    };
    for (int k = 1; k < n; ++k) {
      vm_->vcpu(k).main_sw.main =
          [this, k, body = std::move(bodies[static_cast<size_t>(k)])](
              GuestEnv& env) {
            if (l1_ == nullptr || nvm_ == nullptr) {
              return;  // the booter faulted before constructing the stack
            }
            l1_->AttachVcpu(env);
            l1_->RunVcpu(env, nvm_->vcpu(k), body);
          };
    }
  }

  SmpEngine engine(machine_.get(), n, threads);
  engine.Run([this, &statuses](int lane) {
    statuses[static_cast<size_t>(lane)] =
        l0_->RunVcpu(vm_->vcpu(lane), /*pcpu=*/lane);
  });
  return statuses;
}

GuestMain ArmStack::MakeIpiRendezvous(int lane, int num_vcpus, int rounds) {
  return [this, lane, num_vcpus, rounds](GuestEnv& env) {
    const uint16_t siblings = static_cast<uint16_t>(
        ((1u << num_vcpus) - 1u) & ~(1u << lane));
    Vcpu& me = RendezvousVcpu(lane);
    for (int round = 1; round <= rounds; ++round) {
      env.WriteSys(SysReg::kICC_SGI1R_EL1, SgiR::Make(siblings, /*sgi_id=*/5));
      // One IPI per sibling per completed round must have *arrived* (been
      // enqueued on our vCPU) before this round's rendezvous is done. The
      // count is monotonic, so a fast sibling racing ahead only overshoots.
      const uint64_t want = static_cast<uint64_t>(round) *
                            static_cast<uint64_t>(num_vcpus - 1);
      env.SmpWaitUntil([&me, want] { return me.virqs_enqueued >= want; });
    }
  };
}

Vcpu& ArmStack::RendezvousVcpu(int lane) {
  return cfg_.nested ? nvm_->vcpu(lane) : vm_->vcpu(lane);
}

uint64_t ArmStack::TotalTrapsToHost() const {
  uint64_t total = 0;
  for (int i = 0; i < machine_->num_cpus(); ++i) {
    total += machine_->cpu(i).trace().traps_to_el2();
  }
  return total;
}

X86Stack::X86Stack(bool nested, int num_cpus, bool vmcs_shadowing)
    : nested_(nested) {
  machine_ = std::make_unique<X86Machine>(num_cpus, CostModel::Default());
  l0_ = std::make_unique<KvmX86>(machine_.get(), vmcs_shadowing);
}

void X86Stack::Run(X86GuestMain body, X86GuestMain receiver) {
  NEVE_CHECK(body);
  if (!nested_) {
    X86Vcpu* sender = l0_->CreateVcpu(false);
    if (receiver) {
      X86Vcpu* rx = l0_->CreateVcpu(false);
      rx->main_sw = std::move(receiver);
      l0_->RunVcpu(*rx, /*pcpu=*/1);
    }
    sender->main_sw = std::move(body);
    l0_->RunVcpu(*sender, /*pcpu=*/0);
    return;
  }

  X86Vcpu* v0 = l0_->CreateVcpu(/*nested_hyp=*/true);
  if (receiver) {
    X86Vcpu* v1 = l0_->CreateVcpu(/*nested_hyp=*/true);
    v1->main_sw = [&, receiver](X86Env& env) {
      l1_ = std::make_unique<X86GuestHyp>(&env, machine_.get());
      l1_->RunNested(env, receiver);
    };
    l0_->RunVcpu(*v1, /*pcpu=*/1);
    v0->main_sw = [&, body](X86Env& env) {
      l1_->Attach(env);
      l1_->RunNested(env, body);
    };
    l0_->RunVcpu(*v0, /*pcpu=*/0);
    return;
  }

  v0->main_sw = [&, body](X86Env& env) {
    l1_ = std::make_unique<X86GuestHyp>(&env, machine_.get());
    l1_->RunNested(env, body);
  };
  l0_->RunVcpu(*v0, /*pcpu=*/0);
}

}  // namespace neve
