// Golden trap-count and simulated-cycle regression: the exact number of
// traps each microbenchmark takes to the host hypervisor, and the exact
// simulated cycles it costs, per stack configuration, pinned against
// checked-in JSON snapshots.
//
// The paper's entire result set (Tables 1/6/7) reduces to these counts; the
// per-op averages the benches report are total/iterations. Cycle costs may be
// retuned, but a trap-count change means the *architecture model* changed --
// it must be deliberate. To update after an intentional change: run this test,
// copy the "actual" JSON from the failure message into
// tests/golden/trap_counts.json, and justify the diff in the commit.
//
// tests/golden/sim_cycles.json pins the other clock the same way: cycles per
// op for every (bench, config) including x86 and the SMP rendezvous, plus the
// per-hypercall attribution buckets on v8.3 and NEVE. Host-speed changes
// (memory layout, locking, caching) must leave it byte-identical; only a
// deliberate cost-model or architecture change may move it.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "src/workload/microbench.h"
#include "src/workload/stacks.h"

namespace neve {
namespace {

constexpr int kIterations = 8;

struct NamedConfig {
  const char* name;
  StackConfig cfg;
};

const NamedConfig kConfigs[] = {
    {"vm", StackConfig::Vm()},
    {"nested-v83", StackConfig::NestedV83(false)},
    {"nested-v83-vhe", StackConfig::NestedV83(true)},
    {"nested-neve", StackConfig::NestedNeve(false)},
    {"nested-neve-vhe", StackConfig::NestedNeve(true)},
};

constexpr MicrobenchKind kKinds[] = {
    MicrobenchKind::kHypercall,
    MicrobenchKind::kDeviceIo,
    MicrobenchKind::kVirtualIpi,
    MicrobenchKind::kVirtualEoi,
};

struct SimTotals {
  uint64_t traps = 0;
  uint64_t cycles = 0;  // all CPUs (Machine::TotalCpuCycles)
};

// Totals for one rendezvous run: `rounds` all-to-all IPI barriers on a
// 4-vCPU nested stack under the SMP engine.
SimTotals RendezvousTotals(const StackConfig& cfg, int rounds) {
  constexpr int kVcpus = 4;
  ArmStack stack(cfg, kVcpus);
  std::vector<GuestMain> bodies;
  for (int k = 0; k < kVcpus; ++k) {
    bodies.push_back(stack.MakeIpiRendezvous(k, kVcpus, rounds));
  }
  for (const Status& s : stack.RunSmp(std::move(bodies), /*threads=*/kVcpus)) {
    EXPECT_TRUE(s.ok()) << s.message();
  }
  return {stack.TotalTrapsToHost(), stack.machine().TotalCpuCycles()};
}

// Steady-state totals for kIterations rendezvous rounds, boot and teardown
// cancelled by differencing two round counts (runs are deterministic, so the
// subtraction is exact).
SimTotals SmpRendezvousTotals(const StackConfig& cfg) {
  SimTotals more = RendezvousTotals(cfg, 2 + kIterations);
  SimTotals base = RendezvousTotals(cfg, 2);
  return {more.traps - base.traps, more.cycles - base.cycles};
}

std::string ReadGolden(const std::string& name) {
  std::string path = std::string(NEVE_SOURCE_DIR) + "/tests/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

// Canonical JSON rendering of every (bench, config) -> total-traps cell.
// Deterministic formatting so the golden comparison is an exact string match.
std::string ActualTrapCountsJson() {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"neve-trap-counts-v1\",\n";
  out << "  \"iterations\": " << kIterations << ",\n";
  out << "  \"entries\": [\n";
  bool first = true;
  for (MicrobenchKind kind : kKinds) {
    for (const NamedConfig& c : kConfigs) {
      MicrobenchResult r = RunArmMicrobench(kind, c.cfg, kIterations);
      auto traps = static_cast<long long>(
          std::llround(r.traps_per_op * kIterations));
      if (!first) {
        out << ",\n";
      }
      first = false;
      out << "    {\"bench\": \"" << MicrobenchName(kind) << "\", \"config\": \""
          << c.name << "\", \"traps\": " << traps << "}";
    }
  }
  // SMP row: 4-vCPU nested guests, one all-to-all IPI rendezvous per
  // iteration (the hackbench-style cross-vCPU traffic the paper's SMP rows
  // measure). The trap totals are the cross-vCPU injection path multiplied
  // through each architecture's emulation.
  out << ",\n    {\"bench\": \"SMP Rendezvous\", \"config\": "
      << "\"nested-v83-vhe\", \"traps\": "
      << SmpRendezvousTotals(StackConfig::NestedV83(true)).traps << "}";
  out << ",\n    {\"bench\": \"SMP Rendezvous\", \"config\": "
      << "\"nested-neve-vhe\", \"traps\": "
      << SmpRendezvousTotals(StackConfig::NestedNeve(true)).traps << "}";
  out << "\n  ]\n}\n";
  return out.str();
}

// Shortest decimal that round-trips the double exactly, so the golden string
// pins the value bit for bit.
std::string Exact(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// Per-hypercall cycles by (layer, category), summed over vm/vcpu: two
// attributed runs differenced so boot and warm-up cancel exactly.
std::map<std::string, double> PerHypercallBuckets(const StackConfig& cfg) {
  auto totals = [&](int iterations) {
    std::map<std::string, uint64_t> m;
    for (const AttrBucket& b :
         RunArmMicrobenchAttributed(MicrobenchKind::kHypercall, cfg,
                                    iterations)
             .buckets) {
      m[std::string(AttrLayerName(b.layer)) + ";" + AttrCatName(b.cat)] +=
          b.cycles;
    }
    return m;
  };
  std::map<std::string, uint64_t> more = totals(2 * kIterations);
  std::map<std::string, uint64_t> base = totals(kIterations);
  std::map<std::string, double> out;
  for (const auto& [key, cycles] : more) {
    uint64_t delta = cycles - base[key];
    if (delta != 0) {
      out[key] = static_cast<double>(delta) / kIterations;
    }
  }
  return out;
}

// Canonical JSON rendering of every (bench, config) -> cycles-per-op cell
// plus the per-hypercall attribution buckets.
std::string ActualSimCyclesJson() {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"neve-sim-cycles-v1\",\n";
  out << "  \"iterations\": " << kIterations << ",\n";
  out << "  \"entries\": [\n";
  bool first = true;
  auto row = [&](const char* bench, const std::string& config, double cpo) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "    {\"bench\": \"" << bench << "\", \"config\": \"" << config
        << "\", \"cycles_per_op\": " << Exact(cpo) << "}";
  };
  for (MicrobenchKind kind : kKinds) {
    for (const NamedConfig& c : kConfigs) {
      row(MicrobenchName(kind), c.name,
          RunArmMicrobench(kind, c.cfg, kIterations).cycles_per_op);
    }
    row(MicrobenchName(kind), "x86-vm",
        RunX86Microbench(kind, false, kIterations).cycles_per_op);
    row(MicrobenchName(kind), "x86-nested",
        RunX86Microbench(kind, true, kIterations).cycles_per_op);
    row(MicrobenchName(kind), "x86-nested-noshadow",
        RunX86Microbench(kind, true, kIterations, /*vmcs_shadowing=*/false)
            .cycles_per_op);
  }
  const NamedConfig smp[] = {{"nested-v83-vhe", StackConfig::NestedV83(true)},
                             {"nested-neve-vhe", StackConfig::NestedNeve(true)}};
  for (const NamedConfig& c : smp) {
    row("SMP Rendezvous", c.name,
        static_cast<double>(SmpRendezvousTotals(c.cfg).cycles) / kIterations);
  }
  out << "\n  ],\n";
  out << "  \"hypercall_buckets\": [\n";
  first = true;
  const NamedConfig hvc[] = {{"nested-v83", StackConfig::NestedV83(false)},
                             {"nested-neve", StackConfig::NestedNeve(false)}};
  for (const NamedConfig& c : hvc) {
    for (const auto& [key, cycles] : PerHypercallBuckets(c.cfg)) {
      if (!first) {
        out << ",\n";
      }
      first = false;
      out << "    {\"config\": \"" << c.name << "\", \"bucket\": \"" << key
          << "\", \"cycles_per_op\": " << Exact(cycles) << "}";
    }
  }
  out << "\n  ]\n}\n";
  return out.str();
}

TEST(GoldenTrapsTest, TrapCountsMatchCheckedInSnapshot) {
  std::string actual = ActualTrapCountsJson();
  EXPECT_EQ(ReadGolden("trap_counts.json"), actual)
      << "trap counts diverged from tests/golden/trap_counts.json.\n"
      << "If the change is intentional, replace the golden file with:\n"
      << actual;
}

TEST(GoldenCyclesTest, SimCyclesMatchCheckedInSnapshot) {
  std::string actual = ActualSimCyclesJson();
  EXPECT_EQ(ReadGolden("sim_cycles.json"), actual)
      << "simulated cycles diverged from tests/golden/sim_cycles.json.\n"
      << "If the change is intentional, replace the golden file with:\n"
      << actual;
}

// The per-op trap averages the benches report must be exact multiples of
// 1/iterations -- traps are integral events, and a fractional residue means
// a bench mixed warmup traps into its measured window.
TEST(GoldenTrapsTest, PerOpTrapAveragesAreIntegralTotals) {
  for (MicrobenchKind kind : kKinds) {
    for (const NamedConfig& c : kConfigs) {
      MicrobenchResult r = RunArmMicrobench(kind, c.cfg, kIterations);
      double total = r.traps_per_op * kIterations;
      EXPECT_NEAR(total, std::llround(total), 1e-9)
          << MicrobenchName(kind) << " / " << c.name;
    }
  }
}

}  // namespace
}  // namespace neve
