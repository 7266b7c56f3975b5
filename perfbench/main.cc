// Two-clock benchmark driver for the NEVE simulator.
//
// Runs one named workload for a fixed host-time budget and prints, as its last
// stdout line, "PERFBENCH_RESULT <json>": end-to-end metrics (untraced runs)
// or per-layer metrics (traced runs), operation counts, and the outcome of
// every output check. perfbench/run.py builds this program, runs it and turns
// that line into the benchmark's result. See perfbench/README.md.
//
// Host time is measured in short rounds. Every timed segment is bracketed by
// the fixed calibration kernel (calib/) on the same thread, and its host time
// is scaled by (nominal kernel time / kernel time measured around it), so a
// machine that runs slower for a few seconds does not read as a slower
// simulator. Simulated cycles and trap counts are the simulator's output;
// the driver checks them and never scales them.
//
// The driver reaches the simulator only through its public API: ArmStack,
// GuestEnv, Cpu, batch::BatchEngine, snap::Serializer, snap::RunMigration,
// Machine::obs() and Machine::attr().

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "calib/calib.h"
#include "src/arch/hcr.h"
#include "src/arch/vncr.h"
#include "src/base/lock_order.h"
#include "src/gic/gic.h"
#include "src/hyp/guest_kvm.h"
#include "src/hyp/world_switch.h"
#include "src/obs/attr.h"
#include "src/obs/observability.h"
#include "src/sim/batch/batch.h"
#include "src/snap/migrate.h"
#include "src/snap/snap_stack.h"
#include "src/snap/snapshot.h"
#include "src/workload/microbench.h"
#include "src/workload/stacks.h"

namespace pb {
namespace {

using neve::ArmStack;
using neve::GuestEnv;
using neve::GuestMain;
using neve::StackConfig;
using neve::Status;
namespace batch = neve::batch;
namespace snap = neve::snap;

// ---------------------------------------------------------------------------
// Clocks and calibration
// ---------------------------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time. Every timed segment runs while all other threads of the
// process are blocked, so this is the segment's own CPU time: time the
// thread spent descheduled (another tenant on the core) does not count.
double CpuNow() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

const double g_process_start = Now();

// Kernel passes per calibration sample, and the sample's nominal duration:
// the median this build measured on a 4-core 2.1 GHz x86-64 host. Calibrated
// seconds are "seconds on a host where the kernel takes its nominal time".
constexpr uint32_t kCalibPasses = 1;
constexpr double kCalibNominalS = 95e-6;

std::atomic<uint64_t> g_calib_sink{0};

double TimeKernel() {
  double t0 = CpuNow();
  uint64_t v = perfbench_calib_kernel(kCalibPasses);
  double t1 = CpuNow();
  g_calib_sink.fetch_add(v, std::memory_order_relaxed);
  return t1 - t0;
}

// One timed segment: raw wall seconds, CPU seconds, and the kernel's CPU
// time around it. Calibrated seconds scale the CPU time.
struct Seg {
  double raw = 0;
  double cpu = 0;
  double kernel = 0;
  double Factor() const { return kCalibNominalS / kernel; }
  double Cal() const { return cpu * Factor(); }
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double LowerQuartile(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 4];
}

// Every kernel sample taken (for the printed kernel median).
std::mutex g_kernel_mu;
std::vector<double> g_kernel_samples;

// ---------------------------------------------------------------------------
// Benchmark-side spans (traced runs only)
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;  // wall clock, for the Chrome trace
  double end = 0;
  double cpu_start = 0;  // CPU clock, for self times
  double cpu_end = 0;
  int parent = -1;
  int tid = 0;
  double n = 1;         // operations (or bytes, events) the span covers
  double factor = 0;    // calibration factor of the enclosing segment
};

class SpanLog {
 public:
  bool on = false;

  int Begin(std::string name, double n = 1) {
    if (!on) {
      return -1;
    }
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start = Now();
    s.cpu_start = CpuNow();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.tid = Tid();
    s.n = n;
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }
  void End(int id) {
    if (id < 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = Now();
    spans_[static_cast<size_t>(id)].cpu_end = CpuNow();
    if (!stack_.empty() && stack_.back() == id) {
      stack_.pop_back();
    }
  }
  // Calibrate(Mark(), f) gives the spans begun since Mark() the factor `f`.
  size_t Mark() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  void Calibrate(size_t mark, double f) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = mark; i < spans_.size(); ++i) {
      if (spans_[i].factor == 0) {
        spans_[i].factor = f;
      }
    }
  }

  // Calibrated self time per unit of `n`: the lower quartile over spans
  // named `name` (noise only adds time; see Phase::RoundSeconds).
  double SelfPerN(const std::string& name) const {
    std::vector<double> self = SelfTimes();
    std::vector<double> v;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        v.push_back(self[i] / spans_[i].n);
      }
    }
    return LowerQuartile(std::move(v));
  }
  // Calibrated self time summed over spans whose name starts with `prefix`,
  // and the summed n.
  void SumSelf(const std::string& prefix, double* t, double* n) const {
    std::vector<double> self = SelfTimes();
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name.compare(0, prefix.size(), prefix) == 0) {
        *t += self[i];
        *n += spans_[i].n;
      }
    }
  }

  bool WriteChrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
                   "\"args\":{\"n\":%.0f,\"factor\":%.6f}}",
                   i ? "," : "", s.name.c_str(),
                   (s.start - g_process_start) * 1e6,
                   (s.end - s.start) * 1e6, s.tid, s.n, s.factor);
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }

 private:
  static int Tid() {
    static std::atomic<int> next{0};
    thread_local int tid = next.fetch_add(1);
    return tid;
  }
  // A span's CPU time less its children's, calibrated.
  std::vector<double> SelfTimes() const {
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[i] += s.cpu_end - s.cpu_start;
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.cpu_end - s.cpu_start;
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] *= spans_[i].factor;
    }
    return self;
  }

  std::mutex mu_;
  std::vector<Span> spans_;
  // Open spans; threads hand control to each other strictly one at a time,
  // so one stack serves them all.
  std::vector<int> stack_;
};

SpanLog g_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, double n = 1)
      : id_(g_spans.Begin(std::move(name), n)) {}
  ~ScopedSpan() { g_spans.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// Times `f` between two kernel samples on the calling thread.
template <typename F>
Seg Timed(F&& f) {
  double k1 = TimeKernel();
  size_t mark = g_spans.Mark();
  double t0 = Now();
  double c0 = CpuNow();
  f();
  double c1 = CpuNow();
  double t1 = Now();
  double k2 = TimeKernel();
  Seg s{t1 - t0, c1 - c0, 0.5 * (k1 + k2)};
  g_spans.Calibrate(mark, s.Factor());
  {
    std::lock_guard<std::mutex> lock(g_kernel_mu);
    g_kernel_samples.push_back(k1);
    g_kernel_samples.push_back(k2);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

std::vector<std::string> g_check_failures;
int g_checks = 0;

void Check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    g_check_failures.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

// ---------------------------------------------------------------------------
// Stack configurations, op kinds and the paper's reference values
// ---------------------------------------------------------------------------

constexpr int kNumCfgs = 5;
enum CfgIdx { kVm, kV83, kV83Vhe, kNeve, kNeveVhe };
const char* const kCfgNames[kNumCfgs] = {"vm", "v83", "v83_vhe", "neve",
                                         "neve_vhe"};

StackConfig MakeCfg(int c) {
  switch (c) {
    case kV83:
      return StackConfig::NestedV83(false);
    case kV83Vhe:
      return StackConfig::NestedV83(true);
    case kNeve:
      return StackConfig::NestedNeve(false);
    case kNeveVhe:
      return StackConfig::NestedNeve(true);
    default:
      return StackConfig::Vm();
  }
}

constexpr int kNumKinds = 4;
enum Kind { kHvc, kMmio, kIpi, kEoi };
const char* const kKindNames[kNumKinds] = {"hvc", "mmio", "ipi", "eoi"};

// Paper Tables 1 and 6: simulated cycles per op (hvc, mmio, ipi rows).
const double kPaperCycles[3][kNumCfgs] = {
    {2729, 422720, 307363, 92385, 100895},
    {3534, 436924, 312148, 96002, 105071},
    {8364, 611686, 494765, 184657, 213256},
};
// Paper Table 7: traps per op on the nested configs (index by CfgIdx).
const double kPaperTraps[3][kNumCfgs] = {
    {1, 126, 82, 15, 15},
    {0, 128, 82, 15, 15},
    {0, 261, 172, 37, 38},
};
constexpr double kPaperEoiCycles = 71;

// Ops per timed segment: sized so each segment is around a millisecond of
// host time at the reference speed (a nested v8.3 hypercall is ~0.2 ms, a
// NEVE one ~35 us, a VM one ~1 us).
int OpsPerSegment(Kind k, int c) {
  if (k == kEoi) {
    return 1024;
  }
  if (c == kVm) {
    return k == kIpi ? 128 : 512;
  }
  bool neve = c == kNeve || c == kNeveVhe;
  int base = neve ? 16 : 4;
  return k == kIpi ? base / 2 : base;
}

// nested_exits runs kNestedScale segments' worth of ops per cell per round,
// and kSmpRounds rendezvous rounds per SMP op. Each RunSmp boots the guest
// hypervisor inside the timed segment, so the SMP ops must be long enough,
// and the cells heavy enough beside them, that the boot stays a small share
// of the round (see the unit shares in perfbench/README.md).
constexpr int kNestedScale = 8;

// SMP rendezvous: 4 vCPUs, rounds per op, on the VHE nested configs.
constexpr int kSmpVcpus = 4;
constexpr int kSmpRounds = 32;
constexpr int kSmpThreads = 2;
const int kSmpCfgs[2] = {kV83Vhe, kNeveVhe};

// ---------------------------------------------------------------------------
// Guest-side op execution (the microbenchmark bodies of Tables 1/6/7)
// ---------------------------------------------------------------------------

constexpr int kWarmupOps = 4;
constexpr uint32_t kBenchSgi = 5;
constexpr uint32_t kEoiIntid = 40;
constexpr uint64_t kFlagVa = 0x1000;

batch::Program RepeatOp(const batch::Op& op, int count) {
  batch::Program p;
  p.ops.assign(static_cast<size_t>(count), op);
  p.Finalize();
  return p;
}

// Runs a kind's ops on the measured guest. Holds the compiled programs and
// the IPI sequence number across calls.
class OpRunner {
 public:
  OpRunner(ArmStack* stack, Kind kind) : stack_(stack), kind_(kind) {
    switch (kind) {
      case kHvc:
        op_ = batch::Op{.kind = batch::OpKind::kHvc,
                        .imm = neve::kHvcTestCall};
        break;
      case kMmio:
        op_ = batch::Op{.kind = batch::OpKind::kMemLoad,
                        .addr = neve::kBenchDeviceBase};
        break;
      case kIpi:
        op_ = batch::Op{.kind = batch::OpKind::kSysWrite,
                        .enc = neve::SysReg::kICC_SGI1R_EL1,
                        .value = neve::SgiR::Make(/*mask=*/0b10, kBenchSgi)};
        break;
      case kEoi:
        op_ = batch::Op{.kind = batch::OpKind::kSysWrite,
                        .enc = neve::SysReg::kICC_EOIR1_EL1,
                        .value = kEoiIntid};
        break;
    }
    one_ = RepeatOp(op_, 1);
  }

  void Run(GuestEnv& env, int n) {
    batch::BatchEngine& eng = stack_->machine().batch_engine();
    neve::Cpu& cpu = env.cpu();
    switch (kind_) {
      case kHvc:
      case kMmio: {
        auto it = progs_.find(n);
        if (it == progs_.end()) {
          it = progs_.emplace(n, RepeatOp(op_, n)).first;
        }
        eng.Run(cpu, it->second);
        break;
      }
      case kIpi:
        for (int i = 0; i < n; ++i) {
          ++seq_;
          eng.Run(cpu, one_);
          while (env.Load(neve::Va(kFlagVa)) != seq_) {
            env.Compute(8);
          }
          cpu.AdvanceTo(stack_->machine().cpu(1).cycles());
        }
        break;
      case kEoi:
        for (int i = 0; i < n; ++i) {
          cpu.PokeReg(neve::IchListRegister(0),
                      neve::ListReg::ToActive(
                          neve::ListReg::MakePending(kEoiIntid)));
          eng.Run(cpu, one_);
        }
        break;
    }
  }

 private:
  ArmStack* stack_;
  Kind kind_;
  batch::Op op_;
  batch::Program one_;
  std::map<int, batch::Program> progs_;
  uint64_t seq_ = 0;
};

// The IPI receiver: acknowledge, token handler work, post the sequence
// number, complete the interrupt.
GuestMain MakeIpiReceiver() {
  return [](GuestEnv& env) {
    auto seq = std::make_shared<uint64_t>(0);
    env.SetIrqHandler([seq](GuestEnv& henv, uint32_t) {
      uint64_t intid = henv.ReadSys(neve::SysReg::kICC_IAR1_EL1);
      henv.Compute(120);
      *seq += 1;
      henv.Store(neve::Va(kFlagVa), *seq);
      henv.WriteSys(neve::SysReg::kICC_EOIR1_EL1, intid);
    });
    env.ParkRunning();
  };
}

// Simulated outcome of a run of ops.
struct SimCounts {
  uint64_t cycles = 0;   // timing CPU (pCPU 0) cycles
  uint64_t mcycles = 0;  // all CPUs (Machine::TotalCpuCycles)
  uint64_t traps = 0;    // traps to the host hypervisor, all CPUs
};

SimCounts Snapshot(ArmStack& stack, neve::Cpu& timing) {
  return {timing.cycles(), stack.machine().TotalCpuCycles(),
          stack.TotalTrapsToHost()};
}

SimCounts Delta(const SimCounts& a, const SimCounts& b) {
  return {b.cycles - a.cycles, b.mcycles - a.mcycles, b.traps - a.traps};
}

// ---------------------------------------------------------------------------
// Cell: one (kind, config) stack booted once and driven by its own thread
// ---------------------------------------------------------------------------
//
// ArmStack::Run runs a guest body to completion, so a stack that stays booted
// across rounds keeps its body running: the body waits for commands from the
// round loop. Only one thread runs at a time (every command is a blocking
// handoff), so the simulator sees a single-threaded caller.

struct SegOut {
  Seg seg;
  SimCounts sim;
  uint64_t locks = 0;
};

struct ExportOut {
  Seg seg;
  uint64_t events = 0;   // events in the exported trace
  uint64_t dropped = 0;  // dropped events it reports
};

class Cell {
 public:
  // `scale` multiplies the ops per segment (see kNestedScale).
  Cell(Kind kind, int cfg, bool obs, int scale = 1)
      : kind_(kind), cfg_(cfg), obs_(obs),
        n_(scale * OpsPerSegment(kind, cfg)) {}
  ~Cell() { Stop(); }
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  Kind kind() const { return kind_; }
  int cfg() const { return cfg_; }
  int n() const { return n_; }
  std::string Name() const {
    return std::string(kKindNames[kind_]) + "." + kCfgNames[cfg_];
  }
  ArmStack& stack() { return *stack_; }
  // The body has ended before kQuit: a confined guest fault during boot or
  // in a command. Every later command fails without running.
  bool failed() {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_ && !quit_;
  }

  // Constructs and boots the stack (on the cell's thread) and runs the
  // warm-up ops; returns when the body waits for its first command, or
  // when the body has ended (failed()).
  void Start() {
    done_ = false;
    thread_ = std::thread([this] { Main(); });
    WaitDone();
  }
  // Each command returns false, leaving its output untouched, when the
  // body has ended before or during it.
  bool Segment(SegOut* out) {
    if (!Post(kRun)) {
      return false;
    }
    *out = seg_out_;
    return true;
  }
  bool Export(ExportOut* out) {
    if (!Post(kExport)) {
      return false;
    }
    *out = export_out_;
    return true;
  }
  // Untimed: per-op attribution of `n` ops, by category name.
  bool AttrPerOp(std::map<std::string, double>* out) {
    if (!Post(kAttr)) {
      return false;
    }
    *out = attr_out_;
    return true;
  }
  // Untimed: the final trace export of a round (for the JSON check). The
  // recorded count comes from the tracer's event ids, apart from the
  // export's own size and drop counters.
  bool FinalExport(std::string* json, uint64_t* recorded, uint64_t* events,
                   uint64_t* dropped) {
    if (!Post(kFinalExport)) {
      return false;
    }
    *json = std::move(final_json_);
    *recorded = final_recorded_;
    *events = final_events_;
    *dropped = final_dropped_;
    return true;
  }
  void Stop() {
    if (!thread_.joinable()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = quit_ || !finished_;
    }
    Post(kQuit);
    thread_.join();
  }
  Status run_status() const { return run_status_; }

 private:
  enum Cmd { kNone, kRun, kExport, kAttr, kFinalExport, kQuit };

  // Hands `c` to the body and waits for its reply. False when the body had
  // already ended, or ended while running `c`.
  bool Post(Cmd c) {
    std::unique_lock<std::mutex> lock(mu_);
    if (finished_) {
      return false;
    }
    cmd_ = c;
    done_ = false;
    cv_.notify_all();
    cv_.wait(lock, [this] { return done_; });
    return !finished_;
  }
  void WaitDone() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
  }
  Cmd Take() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return cmd_ != kNone; });
    Cmd c = cmd_;
    cmd_ = kNone;
    return c;
  }
  void Reply() {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
  }

  void Main() {
    const std::string cfg = kCfgNames[cfg_];
    {
      ScopedSpan span("construct." + cfg);
      stack_ = std::make_unique<ArmStack>(MakeCfg(cfg_), kind_ == kIpi ? 2 : 1);
    }
    if (obs_) {
      stack_->machine().obs().set_enabled(true);
    }
    int boot = g_spans.Begin("boot." + cfg);
    run_status_ = stack_->Run(
        [this, boot](GuestEnv& env) {
          g_spans.End(boot);
          Body(env);
        },
        kind_ == kIpi ? MakeIpiReceiver() : nullptr);
    // Answers kQuit, the command the body faulted in, or Start when the
    // body never ran (a confined fault during boot).
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    done_ = true;
    cv_.notify_all();
  }

  void Body(GuestEnv& env) {
    OpRunner ops(stack_.get(), kind_);
    ops.Run(env, kWarmupOps);
    // Boot and warm-up events are not part of any round's export.
    stack_->machine().obs().tracer().Clear();
    Reply();
    const std::string name = "ops." + Name();
    neve::Tracer& tracer = stack_->machine().obs().tracer();
    for (;;) {
      Cmd c = Take();
      switch (c) {
        case kRun: {
          SimCounts s0 = Snapshot(*stack_, env.cpu());
          uint64_t l0 = neve::lock_order::Acquisitions();
          seg_out_.seg = Timed([&] {
            ScopedSpan span(name, n_);
            ops.Run(env, n_);
          });
          seg_out_.locks = neve::lock_order::Acquisitions() - l0;
          seg_out_.sim = Delta(s0, Snapshot(*stack_, env.cpu()));
          break;
        }
        case kExport: {
          uint64_t events = tracer.size();
          uint64_t dropped = tracer.dropped_events();
          export_out_.seg = Timed([&] {
            ScopedSpan span("export." + Name(),
                            static_cast<double>(std::max<uint64_t>(events, 1)));
            std::string json = tracer.ToChromeJson();
            std::string text = stack_->machine().obs().metrics().TextReport();
            tracer.Clear();
          });
          export_out_.events = events;
          export_out_.dropped = dropped;
          break;
        }
        case kAttr: {
          auto sum = [&] {
            std::map<std::string, double> m;
            for (const neve::AttrBucket& b : stack_->machine().attr().Snapshot()) {
              m[neve::AttrCatName(b.cat)] += static_cast<double>(b.cycles);
            }
            return m;
          };
          std::map<std::string, double> before = sum();
          ops.Run(env, n_);
          attr_out_ = sum();
          for (auto& [k, v] : attr_out_) {
            v = (v - before[k]) / n_;
          }
          break;
        }
        case kFinalExport: {
          uint64_t id0 = tracer.Instant(0, "perfbench", "mark", 0);
          tracer.Clear();
          ops.Run(env, n_);
          final_events_ = tracer.size();
          final_dropped_ = tracer.dropped_events();
          final_json_ = tracer.ToChromeJson();
          uint64_t id1 = tracer.Instant(0, "perfbench", "mark", 0);
          final_recorded_ = id1 - id0 - 1;
          tracer.Clear();
          break;
        }
        case kQuit:
          return;  // Main replies once Run has returned
        case kNone:
          break;
      }
      Reply();
    }
  }

  Kind kind_;
  int cfg_;
  bool obs_;
  int n_;
  std::unique_ptr<ArmStack> stack_;
  Status run_status_ = Status::Ok();

  std::mutex mu_;
  std::condition_variable cv_;
  Cmd cmd_ = kNone;
  bool done_ = false;
  bool finished_ = false;  // the body has returned
  bool quit_ = false;      // Stop() asked it to
  std::thread thread_;

  SegOut seg_out_;
  ExportOut export_out_;
  std::map<std::string, double> attr_out_;
  std::string final_json_;
  uint64_t final_recorded_ = 0;
  uint64_t final_events_ = 0;
  uint64_t final_dropped_ = 0;
};

// One untimed run of a cell's ops on a fresh stack (warm-up, then one
// segment), for the batching-off and observability-off comparisons.
SimCounts ReferenceSegment(Kind kind, int cfg, int n, bool batch_on, bool obs) {
  StackConfig sc = MakeCfg(cfg);
  sc.batch = batch_on;
  ArmStack stack(sc, kind == kIpi ? 2 : 1);
  stack.machine().obs().set_enabled(obs);
  SimCounts out;
  stack.Run(
      [&](GuestEnv& env) {
        OpRunner ops(&stack, kind);
        ops.Run(env, kWarmupOps);
        SimCounts s0 = Snapshot(stack, env.cpu());
        ops.Run(env, n);
        out = Delta(s0, Snapshot(stack, env.cpu()));
      },
      kind == kIpi ? MakeIpiReceiver() : nullptr);
  return out;
}

// ---------------------------------------------------------------------------
// SMP rendezvous op: a fresh 4-vCPU stack, kSmpRounds all-to-all rounds
// ---------------------------------------------------------------------------

struct SmpOut {
  Seg seg;
  uint64_t traps = 0;
  uint64_t mcycles = 0;
  bool ok = true;
};

SmpOut RunSmpOp(int cfg, int threads) {
  std::unique_ptr<ArmStack> stack;
  {
    ScopedSpan span(std::string("construct.smp.") + kCfgNames[cfg]);
    stack = std::make_unique<ArmStack>(MakeCfg(cfg), kSmpVcpus);
  }
  std::vector<GuestMain> bodies;
  for (int lane = 0; lane < kSmpVcpus; ++lane) {
    bodies.push_back(stack->MakeIpiRendezvous(lane, kSmpVcpus, kSmpRounds));
  }
  SmpOut out;
  std::vector<Status> st;
  out.seg = Timed([&] {
    ScopedSpan span(std::string("smp.") + kCfgNames[cfg], kSmpRounds);
    // Lane 0 boots the guest hypervisor before its body starts; the boot is
    // a child span, so the SMP span's self time is the rendezvous rounds.
    int boot = g_spans.Begin(std::string("boot.smp.") + kCfgNames[cfg]);
    GuestMain lane0 = std::move(bodies[0]);
    bodies[0] = [boot, lane0](GuestEnv& env) {
      g_spans.End(boot);
      lane0(env);
    };
    st = stack->RunSmp(std::move(bodies), threads);
  });
  for (const Status& s : st) {
    out.ok = out.ok && s.ok();
  }
  out.traps = stack->TotalTrapsToHost();
  out.mcycles = stack->machine().TotalCpuCycles();
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot round trips and migrations
// ---------------------------------------------------------------------------

constexpr uint64_t kSnapSteps = 24;
const uint64_t kSpans[3] = {1, 32, 128};

snap::SnapTargets TargetsOf(ArmStack& s) {
  snap::SnapTargets t;
  t.machine = &s.machine();
  t.host = &s.host();
  t.guest_hyp = s.guest_hyp();
  t.device = &s.device();
  return t;
}

struct RoundTripOut {
  Seg seg;
  bool ok = true;
  uint64_t mcycles = 0;
  uint64_t traps = 0;
  size_t image_bytes = 0;
  std::vector<uint8_t> bytes;
};

// Capture at step `cp` of a run that continues to the end (the uninterrupted
// twin), Encode, Decode, Apply into a fresh stack, finish the run there; the
// restored run's EndState must equal the twin's.
RoundTripOut RoundTrip(int cfg, uint64_t seed, uint64_t cp) {
  const std::string c = kCfgNames[cfg];
  RoundTripOut out;
  std::unique_ptr<ArmStack> src;
  std::unique_ptr<ArmStack> dst;
  Status cap = Status::Ok();
  Status dec = Status::Ok();
  Status app = Status::Ok();
  Status run_src = Status::Ok();
  Status run_dst = Status::Ok();
  snap::Image img;
  snap::Image img2;
  out.seg = Timed([&] {
    {
      ScopedSpan span("construct." + c);
      src = std::make_unique<ArmStack>(MakeCfg(cfg), 1);
    }
    int boot = g_spans.Begin("boot." + c);
    run_src = src->Run([&](GuestEnv& env) {
      g_spans.End(boot);
      snap::SnapTargets t = TargetsOf(*src);
      for (uint64_t s = 0; s < kSnapSteps; ++s) {
        if (s == cp) {
          ScopedSpan span("snap.capture." + c);
          cap = snap::Serializer::Capture(t, &img);
        }
        snap::SnapStep(env, seed, s);
      }
    });
    {
      ScopedSpan span("snap.encode." + c);
      out.bytes = snap::Serializer::Encode(img);
    }
    {
      ScopedSpan span("snap.decode." + c);
      dec = snap::Serializer::Decode(out.bytes, &img2);
    }
    {
      ScopedSpan span("construct." + c);
      dst = std::make_unique<ArmStack>(MakeCfg(cfg), 1);
    }
    int boot2 = g_spans.Begin("boot." + c);
    run_dst = dst->Run([&](GuestEnv& env) {
      g_spans.End(boot2);
      {
        ScopedSpan span("snap.apply." + c);
        app = snap::Serializer::Apply(TargetsOf(*dst), img2);
      }
      if (!app.ok()) {
        return;
      }
      for (uint64_t s = cp; s < kSnapSteps; ++s) {
        snap::SnapStep(env, seed, s);
      }
    });
  });
  out.ok = cap.ok() && dec.ok() && app.ok() && run_src.ok() && run_dst.ok();
  Check(cap.ok(), "capture " + c + ": " + cap.ToString());
  Check(dec.ok(), "decode " + c + ": " + dec.ToString());
  Check(app.ok(), "apply " + c + ": " + app.ToString());
  if (out.ok) {
    snap::EndState twin = snap::CaptureEndState(*src);
    snap::EndState restored = snap::CaptureEndState(*dst);
    Check(twin == restored, "restored run == twin (" + c + "): " +
                                snap::ToString(restored) + " vs " +
                                snap::ToString(twin));
    out.ok = twin == restored;
  }
  // The simulated run is counted once: the source's whole run (the restored
  // destination ends with the same clocks and trap counters).
  out.mcycles = src->machine().TotalCpuCycles();
  out.traps = src->TotalTrapsToHost();
  out.image_bytes = out.bytes.size();
  return out;
}

snap::SnapSpec SpecOf(int cfg, uint64_t seed, uint64_t span) {
  snap::SnapSpec spec;
  spec.cfg = MakeCfg(cfg);
  spec.steps = kSnapSteps;
  spec.seed = seed;
  spec.store_span_pages = span;
  return spec;
}

struct MigrateOut {
  Seg seg;
  snap::MigrationOutcome outcome;
  Status status = Status::Ok();
};

MigrateOut Migrate(int cfg, uint64_t seed, uint64_t span) {
  MigrateOut out;
  snap::MigrateConfig mc;
  out.seg = Timed([&] {
    ScopedSpan s(Fmt("snap.migration.span%llu.%s",
                     static_cast<unsigned long long>(span), kCfgNames[cfg]));
    out.status = snap::RunMigration(SpecOf(cfg, seed, span), mc, &out.outcome);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Result assembly
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one unit of a round (a cell's segment, an SMP op, a round trip, a
// migration) did.
struct UnitOut {
  double cal = 0;        // calibrated seconds
  double raw = 0;        // wall seconds
  uint64_t ops = 0;      // attempted
  uint64_t cycles = 0;   // timing-CPU cycles
  uint64_t mcycles = 0;  // cycles over every CPU
  uint64_t traps = 0;
  uint64_t failed = 0;   // ops that failed; the unit's time and counts are
                         // then left out of the round
  bool counted = true;   // false: a reference unit outside the workload
};

struct Phase {
  std::string workload;
  double setup_factor = 1;        // calibration factor for set-up
  double setup_raw = 0;           // raw (wall) set-up seconds
  double setup_cpu = 0;           // CPU set-up seconds
  std::map<int, std::vector<double>> unit_cal;  // per unit, per round
  std::map<int, UnitOut> first;  // first completed run, per unit
  std::map<int, std::string> unit_names;
  // The first round's simulated counts, by unit name: a traced run's must
  // equal an untraced run's.
  std::map<std::string, uint64_t> sim;
  double raw_total = 0;  // wall seconds inside timed segments
  uint64_t rounds = 0;
  uint64_t attempted = 0;
  uint64_t ops_per_round = 0;  // completed ops of the first round
  uint64_t mcycles_per_round = 0;
  uint64_t traps_per_round = 0;
  uint64_t failed = 0;

  // Calibrated seconds of one round: the sum over the round's units of each
  // unit's lower-quartile time. Noise only ever adds time, and a quartile
  // per unit stays put while up to three quarters of a run's segments are
  // disturbed (a plain median of round sums moves once half are).
  double RoundSeconds() const {
    double t = 0;
    for (const auto& [u, v] : unit_cal) {
      t += LowerQuartile(v);
    }
    return t;
  }

  // Each unit's share of RoundSeconds(), by unit name.
  std::string UnitSharesJson() const {
    const double t = RoundSeconds();
    std::string s = "{";
    for (const auto& [u, v] : unit_cal) {
      s += Fmt("%s\"%s\":%.4f", s.size() > 1 ? "," : "",
               unit_names.at(u).c_str(), LowerQuartile(v) / t);
    }
    return s + "}";
  }

  std::vector<Metric> EndToEnd() const {
    double t = RoundSeconds();
    double rss_mb = 0;
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
      rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    return {
        {"ops_per_s", static_cast<double>(ops_per_round) / t, "ops/s"},
        {"sim_mcycles_per_s",
         static_cast<double>(mcycles_per_round) / t / 1e6, "Mcycles/s"},
        {"traps_per_s", static_cast<double>(traps_per_round) / t, "traps/s"},
        {"setup_s", setup_cpu * setup_factor, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  }
};

// Calibration for set-up: the kernel right after set-up, median of three.
// `start` is the set-up's start: the process's start for the first phase.
struct Start {
  double wall;
  double cpu;
};

void FinishSetup(Phase* p, Start start) {
  p->setup_raw = Now() - start.wall;
  p->setup_cpu = CpuNow() - start.cpu;
  std::vector<double> k = {TimeKernel(), TimeKernel(), TimeKernel()};
  p->setup_factor = kCalibNominalS / Median(k);
  // Spans outside any timed segment (set-up) get the set-up factor.
  g_spans.Calibrate(0, p->setup_factor);
}

// Runs whole rounds, every unit once per round in `order`, until `seconds`
// of wall time have passed. A unit's simulated counts must repeat exactly
// from round to round. A unit that fails counts its ops as attempted and
// failed; its time and simulated counts are left out.
template <typename Name, typename Unit>
void RunRounds(Phase* p, const std::vector<int>& order, double seconds,
               Name name, Unit unit) {
  const double deadline = Now() + seconds;
  do {
    UnitOut round;
    for (int u : order) {
      UnitOut o = unit(u);
      if (!o.counted) {
        continue;
      }
      round.ops += o.ops;
      round.failed += o.failed;
      if (o.failed != 0) {
        continue;
      }
      p->unit_cal[u].push_back(o.cal);
      round.raw += o.raw;
      round.mcycles += o.mcycles;
      round.traps += o.traps;
      auto [it, fresh] = p->first.emplace(u, o);
      if (fresh) {
        p->unit_names[u] = name(u);
        p->sim["cycles." + name(u)] = o.mcycles;
        p->sim["traps." + name(u)] = o.traps;
      } else if (it->second.mcycles != o.mcycles ||
                 it->second.traps != o.traps) {
        Check(false, name(u) + ": simulated counts changed between rounds");
      }
    }
    if (p->rounds == 0) {
      p->ops_per_round = round.ops - round.failed;
      p->mcycles_per_round = round.mcycles;
      p->traps_per_round = round.traps;
    }
    p->attempted += round.ops;
    p->failed += round.failed;
    p->raw_total += round.raw;
    ++p->rounds;
  } while (Now() < deadline);
}

std::vector<Metric> g_layer;  // per-layer metrics (traced runs)
std::vector<std::string> g_trace_files;  // "<path>=<recorded events>"

void Layer(const std::string& name, double v, const std::string& unit) {
  g_layer.push_back({name, v, unit});
}

// ---------------------------------------------------------------------------
// Workload: nested_exits
// ---------------------------------------------------------------------------

std::vector<int> Shuffled(int n, std::mt19937_64* rng) {
  std::vector<int> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = i;
  }
  for (int i = n - 1; i > 0; --i) {
    int j = static_cast<int>((*rng)() % static_cast<uint64_t>(i + 1));
    std::swap(v[static_cast<size_t>(i)], v[static_cast<size_t>(j)]);
  }
  return v;
}

Phase RunNestedExits(uint64_t seed, double seconds, Start start, bool traced) {
  Phase p;
  p.workload = "nested_exits";
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<std::unique_ptr<Cell>> cells;
  for (int k = 0; k < kNumKinds; ++k) {
    for (int c = 0; c < kNumCfgs; ++c) {
      cells.push_back(
          std::make_unique<Cell>(static_cast<Kind>(k), c, false, kNestedScale));
    }
  }
  for (auto& cell : cells) {
    cell->Start();
  }
  FinishSetup(&p, start);

  // Units: every cell, then the two SMP rendezvous ops.
  const int ncells = static_cast<int>(cells.size());
  std::vector<int> order = Shuffled(ncells + 2, &rng);
  uint64_t locks = 0;
  RunRounds(
      &p, order, seconds,
      [&](int u) {
        return u < ncells ? cells[static_cast<size_t>(u)]->Name()
                          : std::string("smp.") + kCfgNames[kSmpCfgs[u - ncells]];
      },
      [&](int u) {
        if (u < ncells) {
          Cell& cell = *cells[static_cast<size_t>(u)];
          const uint64_t n = static_cast<uint64_t>(cell.n());
          SegOut o;
          if (!cell.Segment(&o)) {
            return UnitOut{.ops = n, .failed = n};
          }
          locks += o.locks;
          return UnitOut{.cal = o.seg.Cal(), .raw = o.seg.raw, .ops = n,
                         .cycles = o.sim.cycles, .mcycles = o.sim.mcycles,
                         .traps = o.sim.traps};
        }
        SmpOut o = RunSmpOp(kSmpCfgs[u - ncells], kSmpThreads);
        if (!o.ok) {
          return UnitOut{.ops = kSmpRounds, .failed = kSmpRounds};
        }
        return UnitOut{.cal = o.seg.Cal(), .raw = o.seg.raw, .ops = kSmpRounds,
                       .mcycles = o.mcycles, .traps = o.traps};
      });

  // --- output checks --------------------------------------------------------
  // Over the units that completed; a failed unit is counted in `failed`.
  double cyc[kNumKinds][kNumCfgs] = {};
  double trp[kNumKinds][kNumCfgs] = {};
  bool have[kNumKinds][kNumCfgs] = {};
  for (size_t i = 0; i < cells.size(); ++i) {
    Cell& cell = *cells[i];
    auto it = p.first.find(static_cast<int>(i));
    if (it == p.first.end()) {
      continue;
    }
    const UnitOut& f = it->second;
    const int n = cell.n();
    Check(f.traps % static_cast<uint64_t>(n) == 0,
          Fmt("%s: %llu traps not a multiple of %d ops", cell.Name().c_str(),
              static_cast<unsigned long long>(f.traps), n));
    have[cell.kind()][cell.cfg()] = true;
    cyc[cell.kind()][cell.cfg()] = static_cast<double>(f.cycles) / n;
    trp[cell.kind()][cell.cfg()] = static_cast<double>(f.traps) / n;
    SimCounts off = ReferenceSegment(cell.kind(), cell.cfg(), n, false, false);
    Check(off.cycles == f.cycles && off.mcycles == f.mcycles &&
              off.traps == f.traps,
          "batching off gives the same cycles/traps: " + cell.Name());
  }
  for (int c = 0; c < kNumCfgs; ++c) {
    if (have[kEoi][c]) {
      Check(trp[kEoi][c] == 0 && cyc[kEoi][c] == kPaperEoiCycles,
            Fmt("eoi.%s: %g traps, %g cycles (want 0, 71)", kCfgNames[c],
                trp[kEoi][c], cyc[kEoi][c]));
    }
    for (int k = 0; k < 3; ++k) {
      if (!have[k][c]) {
        continue;
      }
      double rel = cyc[k][c] / kPaperCycles[k][c] - 1;
      Check(std::abs(rel) <= 0.35,
            Fmt("%s.%s cycles %.0f vs paper %.0f (%+.0f%%)", kKindNames[k],
                kCfgNames[c], cyc[k][c], kPaperCycles[k][c], rel * 100));
      if (c != kVm) {
        Check(std::abs(trp[k][c] - kPaperTraps[k][c]) <= 20,
              Fmt("%s.%s traps %.0f vs paper %.0f", kKindNames[k],
                  kCfgNames[c], trp[k][c], kPaperTraps[k][c]));
      }
    }
    if (c == kNeve || c == kNeveVhe) {
      int v83 = c == kNeve ? kV83 : kV83Vhe;
      for (int k = 0; k < 3; ++k) {
        if (have[k][c] && have[k][v83]) {
          Check(trp[k][c] < trp[k][v83] && cyc[k][c] < cyc[k][v83],
                Fmt("NEVE below v8.3: %s.%s", kKindNames[k], kCfgNames[c]));
        }
      }
    }
  }
  if (have[kHvc][kVm]) {
    Check(trp[kHvc][kVm] == 1,
          Fmt("vm hypercall traps %g (want 1)", trp[kHvc][kVm]));
  }
  for (int s = 0; s < 2; ++s) {
    auto it = p.first.find(ncells + s);
    if (it == p.first.end()) {
      continue;
    }
    SmpOut one = RunSmpOp(kSmpCfgs[s], 1);
    Check(one.ok && one.traps == it->second.traps,
          Fmt("smp %s traps at 1 thread %llu vs %d threads %llu",
              kCfgNames[kSmpCfgs[s]], static_cast<unsigned long long>(one.traps),
              kSmpThreads,
              static_cast<unsigned long long>(it->second.traps)));
  }

  // --- per-layer counts (traced runs) ----------------------------------------
  std::map<std::string, std::map<std::string, double>> attr;
  if (traced) {
    for (auto& cell : cells) {
      if (cell->kind() == kHvc && (cell->cfg() == kV83 || cell->cfg() == kNeve)) {
        cell->AttrPerOp(&attr[kCfgNames[cell->cfg()]]);
      }
    }
  }
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t batched = 0;
  uint64_t interp = 0;
  for (auto& cell : cells) {
    cell->Stop();
    if (cell->failed()) {
      std::fprintf(stderr, "%s: guest ended early: %s\n", cell->Name().c_str(),
                   cell->run_status().ToString().c_str());
      continue;
    }
    Check(cell->run_status().ok(), "run status " + cell->Name());
    neve::Machine& m = cell->stack().machine();
    Check(m.attr().TotalCycles() == m.TotalCpuCycles(),
          "attribution buckets sum to TotalCpuCycles: " + cell->Name());
    for (int i = 0; i < m.num_cpus(); ++i) {
      hits += m.cpu(i).resolution_cache().hits();
      misses += m.cpu(i).resolution_cache().misses();
    }
    batched += m.batch_engine().ops_batched();
    interp += m.batch_engine().ops_interpreted();
  }

  if (traced) {
    for (int k = 0; k < 3; ++k) {
      for (int c = 0; c < kNumCfgs; ++c) {
        Layer(Fmt("sim.cycles.%s.%s", kKindNames[k], kCfgNames[c]), cyc[k][c],
              "cycles");
        Layer(Fmt("sim.traps.%s.%s", kKindNames[k], kCfgNames[c]), trp[k][c],
              "traps");
      }
    }
    const char* cats[] = {"ws_enter", "ws_exit", "trap_sysreg", "vel2_deliver",
                          "vncr_redirect"};
    for (const char* c : {"v83", "neve"}) {
      for (const char* cat : cats) {
        Layer(Fmt("attr.%s.%s", cat, c), attr[c][cat], "cycles");
      }
    }
    Layer("cpu.resolve_hit_ratio",
          static_cast<double>(hits) / static_cast<double>(hits + misses),
          "ratio");
    Layer("batch.ops_batched_ratio",
          static_cast<double>(batched) / static_cast<double>(batched + interp),
          "ratio");
    Layer("base.lock_acquisitions_per_op",
          static_cast<double>(locks) /
              static_cast<double>(p.rounds * p.ops_per_round),
          "count");
    // Host time per op and per trap, from the op spans.
    for (int k = 0; k < kNumKinds; ++k) {
      for (int c = 0; c < kNumCfgs; ++c) {
        double per_op = g_spans.SelfPerN(
            Fmt("ops.%s.%s", kKindNames[k], kCfgNames[c]));
        if (k == kEoi) {
          Layer(Fmt("eoi_ns.%s", kCfgNames[c]), per_op * 1e9, "ns");
        } else {
          Layer(Fmt("exit_us.%s.%s", kKindNames[k], kCfgNames[c]), per_op * 1e6,
                "us");
        }
      }
    }
    for (int c = kV83; c < kNumCfgs; ++c) {
      double t = 0;
      double traps = 0;
      for (int k = 0; k < 3; ++k) {
        t += g_spans.SelfPerN(Fmt("ops.%s.%s", kKindNames[k], kCfgNames[c]));
        traps += trp[k][c];
      }
      Layer(Fmt("trap_ns.%s", kCfgNames[c]), t / traps * 1e9, "ns");
    }
    for (int s = 0; s < 2; ++s) {
      Layer(Fmt("smp_round_us.%s", kCfgNames[kSmpCfgs[s]]),
            g_spans.SelfPerN(Fmt("smp.%s", kCfgNames[kSmpCfgs[s]])) * 1e6,
            "us");
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Workload: observed_exits
// ---------------------------------------------------------------------------

Phase RunObservedExits(uint64_t seed, double seconds, Start start,
                       bool traced, const std::string& out_dir) {
  Phase p;
  p.workload = "observed_exits";
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 2);
  std::vector<std::unique_ptr<Cell>> cells;
  for (int k = 0; k < 3; ++k) {
    for (int c = kV83; c < kNumCfgs; ++c) {
      cells.push_back(std::make_unique<Cell>(static_cast<Kind>(k), c, true));
    }
  }
  // Traced runs interleave plain hypercall cells for obs.overhead_x; they are
  // not part of the workload's operations.
  std::vector<std::unique_ptr<Cell>> plain;
  if (traced) {
    plain.push_back(std::make_unique<Cell>(kHvc, kV83, false));
    plain.push_back(std::make_unique<Cell>(kHvc, kNeve, false));
  }
  for (auto& cell : cells) {
    cell->Start();
  }
  for (auto& cell : plain) {
    cell->Start();
  }
  FinishSetup(&p, start);

  const int ncells = static_cast<int>(cells.size());
  std::vector<int> order =
      Shuffled(ncells + static_cast<int>(plain.size()), &rng);
  std::map<std::string, std::vector<double>> hvc_time;  // "obs.v83" etc.
  uint64_t events = 0;
  uint64_t dropped = 0;
  RunRounds(
      &p, order, seconds,
      [&](int u) { return cells[static_cast<size_t>(u)]->Name(); },
      [&](int u) {
        if (u >= ncells) {
          Cell& cell = *plain[static_cast<size_t>(u - ncells)];
          SegOut o;
          if (cell.Segment(&o)) {
            hvc_time[std::string("plain.") + kCfgNames[cell.cfg()]].push_back(
                o.seg.Cal() / cell.n());
          }
          return UnitOut{.counted = false};
        }
        Cell& cell = *cells[static_cast<size_t>(u)];
        const uint64_t n = static_cast<uint64_t>(cell.n());
        SegOut o;
        ExportOut e;
        if (!cell.Segment(&o) || !cell.Export(&e)) {
          return UnitOut{.ops = n, .failed = n};
        }
        events += e.events + e.dropped;
        dropped += e.dropped;
        if (cell.kind() == kHvc) {
          hvc_time[std::string("obs.") + kCfgNames[cell.cfg()]].push_back(
              o.seg.Cal() / cell.n());
        }
        return UnitOut{.cal = o.seg.Cal() + e.seg.Cal(),
                       .raw = o.seg.raw + e.seg.raw,
                       .ops = n,
                       .cycles = o.sim.cycles, .mcycles = o.sim.mcycles,
                       .traps = o.sim.traps};
      });

  // --- output checks --------------------------------------------------------
  // Over the units that completed; a failed unit is counted in `failed`.
  for (size_t i = 0; i < cells.size(); ++i) {
    Cell& cell = *cells[i];
    auto it = p.first.find(static_cast<int>(i));
    if (it == p.first.end()) {
      continue;
    }
    const UnitOut& f = it->second;
    SimCounts plain_ref =
        ReferenceSegment(cell.kind(), cell.cfg(), cell.n(), true, false);
    Check(plain_ref.cycles == f.cycles && plain_ref.traps == f.traps,
          "observed == unobserved cycles/traps: " + cell.Name());
    std::string json;
    uint64_t recorded = 0;
    uint64_t ev = 0;
    uint64_t dr = 0;
    if (!cell.FinalExport(&json, &recorded, &ev, &dr)) {
      Check(false, "final export: guest ended early: " + cell.Name());
      continue;
    }
    Check(ev + dr == recorded,
          Fmt("%s: %llu events + %llu dropped != %llu recorded",
              cell.Name().c_str(), static_cast<unsigned long long>(ev),
              static_cast<unsigned long long>(dr),
              static_cast<unsigned long long>(recorded)));
    std::string path = out_dir + "/obs_trace." + cell.Name() + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    bool ok = out != nullptr &&
              std::fwrite(json.data(), 1, json.size(), out) == json.size();
    if (out != nullptr) {
      ok = std::fclose(out) == 0 && ok;
    }
    Check(ok, "write " + path);
    g_trace_files.push_back(
        Fmt("%s=%llu", path.c_str(), static_cast<unsigned long long>(recorded)));
  }
  for (auto& cell : cells) {
    cell->Stop();
    if (cell->failed()) {
      std::fprintf(stderr, "%s: guest ended early: %s\n", cell->Name().c_str(),
                   cell->run_status().ToString().c_str());
      continue;
    }
    Check(cell->run_status().ok(), "run status observed " + cell->Name());
  }
  for (auto& cell : plain) {
    cell->Stop();
  }

  if (traced) {
    for (const char* c : {"v83", "neve"}) {
      Layer(Fmt("obs.overhead_x.%s", c),
            Median(hvc_time[std::string("obs.") + c]) /
                Median(hvc_time[std::string("plain.") + c]),
            "x");
    }
    Layer("obs.export_ns_per_event", [] {
      double t = 0;
      double n = 0;
      g_spans.SumSelf("export.", &t, &n);
      return t / n * 1e9;
    }(), "ns");
    Layer("obs.events_per_op",
          static_cast<double>(events) /
              static_cast<double>(p.rounds * p.ops_per_round),
          "count");
    Layer("obs.dropped_events", static_cast<double>(dropped), "count");
  }
  return p;
}

// ---------------------------------------------------------------------------
// Workload: snapshot_migrate
// ---------------------------------------------------------------------------

Phase RunSnapshotMigrate(uint64_t seed, double seconds, Start start,
                         bool traced) {
  Phase p;
  p.workload = "snapshot_migrate";
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 3);
  // Units: a round trip per config (u < kNumCfgs), then a migration per
  // (config, dirty span). Each unit runs its own SnapStep op mix (seeded by
  // the unit, not by --seed: the mixes differ by up to 2x in hypercalls, and
  // a round's simulated work must not change with --seed). --seed draws the
  // unit order and each round trip's checkpoint step.
  const int units = kNumCfgs * 4;
  std::vector<uint64_t> op_seed(units);
  std::vector<uint64_t> checkpoint(units);
  for (int u = 0; u < units; ++u) {
    op_seed[static_cast<size_t>(u)] = 101 + static_cast<uint64_t>(u);
    checkpoint[static_cast<size_t>(u)] = kSnapSteps / 4 + rng() % (kSnapSteps / 2);
  }
  // Set-up: the unmigrated control run (construct, boot, run) of every
  // migration unit, the reference its destination is checked against. A
  // committed migration whose destination ends equal to its control (cycle
  // and trap digests included) has simulated the control's cycles and traps.
  std::vector<snap::EndState> control(units);
  std::vector<uint64_t> control_mcycles(units);
  std::vector<uint64_t> control_traps(units);
  for (int u = kNumCfgs; u < units; ++u) {
    const size_t i = static_cast<size_t>(u);
    int c = u % kNumCfgs;
    uint64_t span = kSpans[u / kNumCfgs - 1];
    snap::SnapRunner r(SpecOf(c, op_seed[i], span));
    Status st = r.Run();
    Check(st.ok(), Fmt("control run %s span %llu", kCfgNames[c],
                       static_cast<unsigned long long>(span)));
    control[i] = r.End();
    control_mcycles[i] = r.stack().machine().TotalCpuCycles();
    control_traps[i] = r.stack().TotalTrapsToHost();
  }
  FinishSetup(&p, start);

  std::vector<int> order = Shuffled(units, &rng);
  std::map<uint64_t, std::vector<double>> pages;
  std::map<uint64_t, std::vector<double>> downtime;
  std::vector<double> image_kb;
  std::vector<std::vector<uint8_t>> images(kNumCfgs);
  RunRounds(
      &p, order, seconds,
      [&](int u) {
        return u < kNumCfgs
                   ? std::string("roundtrip.") + kCfgNames[u]
                   : Fmt("migration.span%llu.%s",
                         static_cast<unsigned long long>(kSpans[u / kNumCfgs - 1]),
                         kCfgNames[u % kNumCfgs]);
      },
      [&](int u) {
        const int c = u % kNumCfgs;
        const size_t i = static_cast<size_t>(u);
        if (u < kNumCfgs) {
          RoundTripOut o = RoundTrip(c, op_seed[i], checkpoint[i]);
          if (p.rounds == 0) {
            image_kb.push_back(static_cast<double>(o.image_bytes) / 1024.0);
            images[static_cast<size_t>(c)] = std::move(o.bytes);
          }
          return UnitOut{.cal = o.seg.Cal(), .raw = o.seg.raw, .ops = 1,
                         .mcycles = o.mcycles, .traps = o.traps,
                         .failed = o.ok ? 0u : 1u};
        }
        const uint64_t span = kSpans[u / kNumCfgs - 1];
        MigrateOut o = Migrate(c, op_seed[i], span);
        const bool same = o.outcome.dest_end == control[i];
        const bool ok = o.status.ok() && o.outcome.stats.committed &&
                        o.outcome.vm_on_dest && same;
        Check(ok, Fmt("migration %s span %llu: status %s committed %d "
                      "dest==control %d",
                      kCfgNames[c], static_cast<unsigned long long>(span),
                      o.status.ToString().c_str(),
                      o.outcome.stats.committed ? 1 : 0, same ? 1 : 0));
        if (p.rounds == 0) {
          pages[span].push_back(static_cast<double>(o.outcome.stats.pages_sent));
          downtime[span].push_back(o.outcome.stats.downtime_cycles / 1000.0);
        }
        return UnitOut{.cal = o.seg.Cal(), .raw = o.seg.raw, .ops = 1,
                       .mcycles = control_mcycles[i],
                       .traps = control_traps[i], .failed = ok ? 0u : 1u};
      });

  // --- output checks --------------------------------------------------------
  for (int c = 0; c < kNumCfgs; ++c) {
    const std::vector<uint8_t>& bytes = images[static_cast<size_t>(c)];
    snap::Image img;
    Status dec = snap::Serializer::Decode(bytes, &img);
    Check(dec.ok() && snap::Serializer::Encode(img) == bytes,
          std::string("Encode(Decode(bytes)) == bytes: ") + kCfgNames[c]);
    std::vector<uint8_t> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x01;
    snap::Image bad;
    Check(!snap::Serializer::Decode(flipped, &bad).ok(),
          std::string("Decode rejects a flipped byte: ") + kCfgNames[c]);
  }

  if (traced) {
    const char* stages[] = {"capture", "encode", "decode", "apply"};
    for (const char* st : stages) {
      std::vector<double> v;
      for (int c = 0; c < kNumCfgs; ++c) {
        v.push_back(g_spans.SelfPerN(Fmt("snap.%s.%s", st, kCfgNames[c])));
      }
      Layer(Fmt("snap.%s_ms", st), Median(v) * 1e3, "ms");
    }
    Layer("snap.image_kb", Median(image_kb), "KiB");
    for (uint64_t span : kSpans) {
      std::vector<double> v;
      for (int c = 0; c < kNumCfgs; ++c) {
        v.push_back(g_spans.SelfPerN(
            Fmt("snap.migration.span%llu.%s",
                static_cast<unsigned long long>(span), kCfgNames[c])));
      }
      Layer(Fmt("snap.migration_ms.span%llu", static_cast<unsigned long long>(span)),
            Median(v) * 1e3, "ms");
      Layer(Fmt("snap.pages_sent.span%llu", static_cast<unsigned long long>(span)),
            Median(pages[span]), "pages");
      Layer(Fmt("snap.downtime_kcycles.span%llu",
                static_cast<unsigned long long>(span)),
            Median(downtime[span]), "kcycles");
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Probes (traced runs): single-layer operations timed in isolation
// ---------------------------------------------------------------------------

// One probe: a single-layer operation, `iters` times per timed segment.
struct ProbeSpec {
  const char* metric;
  int iters;
  std::function<void(int)> body;
};

// Probe segments are interleaved (every probe once per repetition) so a
// few noisy milliseconds cannot land on all of one probe's segments.
constexpr int kProbeReps = 40;

void RunProbes() {
  auto make_cpu = [](neve::PhysMem* mem, const neve::ArchFeatures& f) {
    return std::make_unique<neve::Cpu>(0, f, neve::CostModel::Default(), mem);
  };
  neve::PhysMem mem_vhe(16ull << 20);
  neve::PhysMem mem_nvhe(16ull << 20);
  neve::PhysMem mem_neve(16ull << 20);
  neve::PhysMem mem_el1(16ull << 20);
  auto cpu_vhe = make_cpu(&mem_vhe, neve::ArchFeatures::Armv83Nv());
  auto cpu_nvhe = make_cpu(&mem_nvhe, neve::ArchFeatures::Armv83Nv());
  auto cpu_neve = make_cpu(&mem_neve, neve::ArchFeatures::Armv84Neve());
  auto cpu_el1 = make_cpu(&mem_el1, neve::ArchFeatures::Armv83Nv());
  cpu_vhe->PokeReg(neve::RegId::kHCR_EL2, neve::Hcr::Make({neve::HcrBits::kE2h}));
  cpu_neve->PokeReg(neve::RegId::kVNCR_EL2,
                    neve::VncrEl2::Make(8ull << 20, true).bits());
  cpu_neve->PokeReg(neve::RegId::kHCR_EL2,
                    neve::Hcr::Make({neve::HcrBits::kVm, neve::HcrBits::kImo,
                                     neve::HcrBits::kNv, neve::HcrBits::kNv1}));
  neve::El1Context ctx;
  neve::Observability obs;
  neve::Tracer tracer(1 << 12);
  ArmStack stack(StackConfig::Vm(), 1);
  uint64_t sink = 0;

  stack.Run([&](GuestEnv& env) {
    sink += env.Load(neve::Va(0x2000));  // warm the TLB
    cpu_neve->RunLowerEl(neve::El::kEl1, [&] {
      cpu_el1->RunLowerEl(neve::El::kEl1, [&] {
        const std::vector<ProbeSpec> probes = {
            {"hyp.ws_el1_ns.vhe", 200,
             [&](int n) {
               for (int i = 0; i < n; ++i) {
                 neve::SaveEl1Context(*cpu_vhe, true, &ctx);
                 neve::RestoreEl1Context(*cpu_vhe, true, ctx);
               }
             }},
            {"hyp.ws_el1_ns.nvhe", 200,
             [&](int n) {
               for (int i = 0; i < n; ++i) {
                 neve::SaveEl1Context(*cpu_nvhe, false, &ctx);
                 neve::RestoreEl1Context(*cpu_nvhe, false, ctx);
               }
             }},
            {"cpu.vel2_sysreg_ns", 20000,
             [&](int n) {
               for (int i = 0; i < n; ++i) {
                 sink += cpu_neve->SysRegRead(neve::SysReg::kTPIDR_EL2);
               }
             }},
            {"cpu.el1_sysreg_ns", 20000,
             [&](int n) {
               for (int i = 0; i < n; ++i) {
                 sink += cpu_el1->SysRegRead(neve::SysReg::kTPIDR_EL1);
               }
             }},
            {"mem.guest_load_ns", 20000,
             [&](int n) {
               for (int i = 0; i < n; ++i) {
                 sink += env.Load(neve::Va(0x2000));
               }
             }},
            {"obs.counter_add_ns", 20000,
             [&](int n) {
               for (int i = 0; i < n; ++i) {
                 obs.metrics().Counter("trap.hvc").Add(1);
               }
             }},
            {"obs.trace_push_ns", 20000,
             [&](int n) {
               for (int i = 0; i < n; ++i) {
                 tracer.Instant(0, "trap", "hvc", static_cast<uint64_t>(i));
               }
             }},
        };
        for (int rep = 0; rep < kProbeReps; ++rep) {
          for (const ProbeSpec& p : probes) {
            Timed([&] {
              ScopedSpan span(std::string("probe.") + p.metric, p.iters);
              p.body(p.iters);
            });
          }
        }
        for (const ProbeSpec& p : probes) {
          Layer(p.metric, g_spans.SelfPerN(std::string("probe.") + p.metric) * 1e9,
                "ns");
        }
      });
    });
  });
  g_calib_sink.fetch_add(sink, std::memory_order_relaxed);
}

void SetupLayers() {
  for (int c = 0; c < kNumCfgs; ++c) {
    Layer(Fmt("setup.construct_ms.%s", kCfgNames[c]),
          g_spans.SelfPerN(Fmt("construct.%s", kCfgNames[c])) * 1e3, "ms");
    Layer(Fmt("setup.boot_ms.%s", kCfgNames[c]),
          g_spans.SelfPerN(Fmt("boot.%s", kCfgNames[c])) * 1e3, "ms");
  }
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    s += Fmt("%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}", i ? "," : "",
             ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  return s + "}";
}

std::string JsonStr(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      o += ' ';
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: neve_perfbench --workload <nested_exits|observed_exits|"
               "snapshot_migrate> --seed <n> --seconds <s> --trace <0|1> "
               "--out <dir>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  if (argc % 2 == 0) {
    return Usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      traced = v == "1";
    } else if (k == "--out") {
      out_dir = v;
    } else {
      return Usage();
    }
  }
  if (workload != "nested_exits" && workload != "observed_exits" &&
      workload != "snapshot_migrate") {
    return Usage();
  }
  if (!(seconds > 0)) {
    return Usage();
  }
  g_spans.on = traced;

  // Untraced: one workload for the whole budget. Traced: every workload for
  // a third of it (so every layer's metrics come out of one traced run),
  // then the probes; the named workload's end-to-end figures are printed
  // for comparison with the untraced runs.
  std::vector<Phase> phases;
  Start start{g_process_start, 0.0};
  auto run = [&](const std::string& w, double secs) {
    if (w == "nested_exits") {
      phases.push_back(RunNestedExits(seed, secs, start, traced));
    } else if (w == "observed_exits") {
      phases.push_back(RunObservedExits(seed, secs, start, traced, out_dir));
    } else {
      phases.push_back(RunSnapshotMigrate(seed, secs, start, traced));
    }
  };
  if (!traced) {
    run(workload, seconds);
  } else {
    run(workload, seconds / 3);
    for (const char* w : {"nested_exits", "observed_exits", "snapshot_migrate"}) {
      if (w != workload) {
        start = Start{Now(), CpuNow()};
        run(w, seconds / 3);
      }
    }
    RunProbes();
    SetupLayers();
  }
  const Phase& main_phase = phases.front();
  std::vector<Metric> e2e = main_phase.EndToEnd();

  std::string spans_file;
  if (traced) {
    spans_file = out_dir + "/spans." + workload + ".json";
    Check(g_spans.WriteChrome(spans_file), "write " + spans_file);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
  }
  double kernel_median = 0;
  {
    std::lock_guard<std::mutex> lock(g_kernel_mu);
    kernel_median = Median(g_kernel_samples);
  }
  std::string traces = "[";
  for (size_t i = 0; i < g_trace_files.size(); ++i) {
    traces += (i ? "," : "") + JsonStr(g_trace_files[i]);
  }
  traces += "]";
  std::string sim = "{";
  for (const auto& [k, v] : main_phase.sim) {
    sim += Fmt("%s\"%s\":%llu", sim.size() > 1 ? "," : "", k.c_str(),
               static_cast<unsigned long long>(v));
  }
  sim += "}";
  std::string failures = "[";
  for (size_t i = 0; i < g_check_failures.size(); ++i) {
    failures += (i ? "," : "") + JsonStr(g_check_failures[i]);
  }
  failures += "]";

  std::printf(
      "PERFBENCH_RESULT {\"workload\":%s,\"seed\":%llu,\"traced\":%s,"
      "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"checks\":%d,"
      "\"check_failures\":%s,\"rounds\":%llu,\"raw_wall_s\":%.6f,"
      "\"mcycles_per_round\":%llu,\"traps_per_round\":%llu,\"round_s\":%.6f,"
      "\"kernel_median_us\":%.4f,\"kernel_nominal_us\":%.4f,"
      "\"setup_raw_s\":%.6f,\"unit_shares\":%s,\"end_to_end\":%s,"
      "\"per_layer\":%s,"
      "\"sim\":%s,\"obs_traces\":%s,\"spans_file\":%s,\"spans\":%zu}\n",
      JsonStr(workload).c_str(), static_cast<unsigned long long>(seed),
      traced ? "true" : "false", g_check_failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), g_checks, failures.c_str(),
      static_cast<unsigned long long>(main_phase.rounds),
      main_phase.raw_total,
      static_cast<unsigned long long>(main_phase.mcycles_per_round),
      static_cast<unsigned long long>(main_phase.traps_per_round),
      main_phase.RoundSeconds(),
      kernel_median * 1e6, kCalibNominalS * 1e6,
      main_phase.setup_raw, main_phase.UnitSharesJson().c_str(),
      MetricsJson(e2e).c_str(),
      MetricsJson(g_layer).c_str(), sim.c_str(), traces.c_str(),
      JsonStr(spans_file).c_str(), g_spans.size());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) { return pb::Main(argc, argv); }
