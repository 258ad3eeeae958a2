//===- Workloads.h - The four benchmark workloads ----------------*- C++ -*-===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload owns its generated inputs and the references computed
/// from them during set-up, and runs one operation at a time: the call
/// into the program is timed, the check of its output against the
/// reference is not. Given a SpanLog, an operation also records a
/// benchmark span around each public call it makes and wires the log's
/// tracer into the program.
///
//===----------------------------------------------------------------------===//

#ifndef VAULTPERF_WORKLOADS_H
#define VAULTPERF_WORKLOADS_H

#include "Measure.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perf {

struct OpResult {
  double Ms = 0;
  double CpuMs = 0;
  bool Ok = true;
  /// Compilations whose diagnostics text differs from the jobs-1
  /// reference.
  unsigned DiagMismatches = 0;
  /// The program's own counters for this op (traced runs only).
  std::map<std::string, double> Counters;
};

/// Samples of one measuring loop.
struct LoopResult {
  std::vector<double> Ms;
  std::vector<double> CpuMs;
  /// Peak resident set size once the loop's first MinOps ops ran.
  double PeakRssMb = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t DiagMismatches = 0;
  /// One profile per op (traced loops only).
  std::vector<OpProfile> Profiles;
  std::vector<std::map<std::string, double>> Counters;
};

/// Operations of a traced run, over all its loops.
struct Totals {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// One named row of output: metric, value, unit, and a note.
struct Row {
  std::string Name;
  double Value = 0;
  std::string Unit;
  std::string Note;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Generates the inputs from \p Seed and computes the references.
  virtual void setup(uint64_t Seed) = 0;
  /// Hash of every generated input byte.
  virtual uint64_t inputHash() const = 0;
  /// Begins a measuring loop (the edit session opens its buffers
  /// here). \p Session is the loop's span log when the workload traces
  /// one session rather than one log per op.
  virtual void start(SpanLog *Session) { (void)Session; }
  virtual void stop() {}
  /// Ops every untraced run makes, however slow the host: peak_rss_mb
  /// is read after them, so it measures the same work in every run.
  virtual uint64_t fixedOps() const = 0;
  /// True when the traced loop records into one session-wide log.
  virtual bool sessionTrace() const { return false; }
  /// Runs op \p I of the loop (ops run in order from 0 after start()).
  virtual OpResult op(uint64_t I, SpanLog *L) = 0;
  /// Breaks every reference, so each op must fail (self-test).
  virtual void corruptReferences() = 0;
  /// Rows the untraced run prints beside the end-to-end metrics: the
  /// op under its workload-specific name and input properties.
  virtual std::vector<Row> describe(const LoopResult &R) const = 0;
  /// The traced run: fills \p Out with per-layer metrics.
  virtual void traced(double Seconds, std::map<std::string, double> &Out,
                      std::vector<Row> &Rows, Totals &Sum) = 0;

  /// \p Host is min(4, cores). The measuring loop runs the compiler at
  /// loopJobs(Host); the traced run also runs the other of jobs 1 and
  /// Host, for sema.flow_speedup and sema.jobs_overhead_ms.
  void setJobs(unsigned Host) {
    HostJobs = Host;
    Jobs = loopJobs(Host);
  }

protected:
  virtual unsigned loopJobs(unsigned HostJobs) const { return HostJobs; }
  /// \p Ops traced ops at \p J jobs; the job count is restored after.
  LoopResult tracedAtJobs(unsigned J, uint64_t Ops);

  unsigned HostJobs = 1;
  unsigned Jobs = 1;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name);
const std::vector<std::string> &workloadNames();

/// Runs ops until \p Seconds have passed (and at least \p MinOps ran,
/// at most \p MaxOps); reads peak RSS once \p MinOps ops ran.
LoopResult runLoop(Workload &W, double Seconds, bool Traced,
                   uint64_t MinOps = 1, uint64_t MaxOps = UINT64_MAX);

} // namespace perf

#endif // VAULTPERF_WORKLOADS_H
