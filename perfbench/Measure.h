//===- Measure.h - Samples, percentiles and benchmark spans ------*- C++ -*-===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the benchmark: wall-clock samples and their
/// median and tail, peak memory, and the span log of a traced run.
///
/// A traced run records one benchmark span around each call into a
/// public entry point of the program (name, start, end, parent, and
/// operation id) and merges it with the spans the program's own Tracer
/// records inside those calls. Everything stays in memory until the
/// run ends; self times then come from the merged tree.
///
//===----------------------------------------------------------------------===//

#ifndef VAULTPERF_MEASURE_H
#define VAULTPERF_MEASURE_H

#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <sched.h>
#include <memory>
#include <string>
#include <vector>

namespace perf {

/// Milliseconds on the steady clock.
double nowMs();

/// CPU time of this process, all threads, in milliseconds. On a guest
/// kernel with paravirtual steal accounting, time the hypervisor gives
/// a vCPU to another guest is not counted.
double cpuMs();

/// Times one region on the wall clock and in process CPU time.
class Stopwatch {
public:
  double wallMs() const { return nowMs() - Wall0; }
  double cpuMs() const { return perf::cpuMs() - Cpu0; }

private:
  double Wall0 = nowMs();
  double Cpu0 = perf::cpuMs();
};

double median(std::vector<double> V);

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, at percentile 100 * (N - 10) / N. Invalid
/// below eleven samples.
struct Tail {
  bool Valid = false;
  double Value = 0;
  double Pct = 0;
  size_t N = 0;
};
Tail tail(std::vector<double> V);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Moves the calling thread to the next core it may run on, in turn.
/// On a shared host each core's speed drifts on its own; a
/// single-threaded phase that starts each repetition on the next core
/// spreads a run over all of them, so one slow core cannot set a whole
/// run's figures. Restores the original affinity on destruction.
class CoreRotation {
public:
  CoreRotation();
  CoreRotation(const CoreRotation &) = delete;
  CoreRotation &operator=(const CoreRotation &) = delete;
  ~CoreRotation();
  void next();

private:
  cpu_set_t Original;
  std::vector<int> Cores;
  size_t Turn = 0;
};

/// One span. Times are microseconds on the owning SpanLog's tracer
/// clock; Tid is the program tracer's thread id, or BenchTid for spans
/// the benchmark itself recorded.
struct Span {
  static constexpr uint32_t BenchTid = UINT32_MAX;
  std::string Name;
  uint64_t Begin = 0;
  uint64_t End = 0;
  int Parent = -1;
  uint32_t Op = 0;
  uint32_t Tid = BenchTid;
};

/// Per-name totals of one operation's spans. Names of per-function
/// spans ("check f", "elab f") fold into "check *" and "elab *".
struct SpanTotals {
  double Ms = 0;     ///< Sum of durations.
  double SelfMs = 0; ///< Sum of durations minus child coverage.
};
using OpProfile = std::map<std::string, SpanTotals>;

/// The spans of one traced session. tracer() is handed to the program
/// (VaultCompiler::setTracer or server Telemetry::Trc) and doubles as
/// the benchmark's clock, so both kinds of span share one time base.
class SpanLog {
public:
  vault::Tracer &tracer() { return *Trc; }

  /// Subsequent spans belong to operation \p Op.
  void beginOp(uint32_t Op) { CurOp = Op; }

  /// RAII benchmark span; a null log makes it a no-op.
  class Scope {
  public:
    Scope(SpanLog *L, const char *Name);
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope();

  private:
    SpanLog *L;
    int Idx = -1;
  };

  /// Parses the program tracer's events, adds them to the log, gives
  /// each its parent (the innermost enclosing span on its own thread,
  /// else the innermost enclosing span on any thread), and returns the
  /// per-operation profiles. Call once, after the session.
  std::map<uint32_t, OpProfile> finish();

private:
  std::unique_ptr<vault::Tracer> Trc = std::make_unique<vault::Tracer>();
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint32_t CurOp = 0;
};

} // namespace perf

#endif // VAULTPERF_MEASURE_H
