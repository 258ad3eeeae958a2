//===- main.cpp - vaultperf, the repository benchmark ---------------------===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
// Usage:
//   vaultperf --workload W --seed N --seconds S --trace 0|1
//   vaultperf --self-test
//
// One process, at most min(4, cores) worker threads: cold-unit runs the
// compiler at that job count, corpus-cold and edit-session at one job
// (see Workloads.cpp). With --trace 0 the run sets the workload up
// several times (setup_s is the median), then runs its operation in a
// closed loop for S seconds, and at least the workload's fixed op count,
// and reports the end-to-end metrics: the median of every op's wall
// time, the median and tail of every op's CPU time, and the peak RSS
// once the fixed op count ran. With --trace 1 it runs the traced
// procedure of the workload and reports the per-layer metrics. Either
// way every operation's output is checked against a reference computed
// during set-up, and the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics map each measured name to its value. perfbench/run.py
// checks those names against BENCHMARK.json and adds the units.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

using namespace perf;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "vaultperf: %s\n"
               "usage: vaultperf --workload W --seed N --seconds S --trace 0|1\n"
               "       vaultperf --self-test\n",
               Why);
  std::exit(2);
}

uint64_t parseNumber(const char *Flag, const char *Text, uint64_t Max) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (!*Text || *End || errno || V > Max || Text[0] == '-')
    usage((std::string("invalid ") + Flag + " '" + Text + "'").c_str());
  return V;
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char B[64];
  std::snprintf(B, sizeof(B), "%.17g", V);
  return B;
}

void printRow(const std::string &Workload, const Row &R) {
  std::printf("%-13s %-30s %16.6f %-6s %s\n", Workload.c_str(), R.Name.c_str(),
              R.Value, R.Unit.c_str(), R.Note.c_str());
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::map<std::string, double> &Metrics) {
  std::string Out = std::string("{\"correct\": ") + (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (const auto &[Name, V] : Metrics)
    Out += std::string(Out.back() == '{' ? "" : ", ") + "\"" + Name +
           "\": " + number(V);
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

unsigned defaultJobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// Sets the workload up at least three times, and up to nine while
/// set-ups have taken under 1.5 s, keeping the last; setup_s is the
/// median. Set-up is single-threaded, so each one starts on the next
/// core. Every set-up must produce the same input bytes.
std::unique_ptr<Workload> setUp(const std::string &Name, uint64_t Seed,
                                double &SetupS, bool &SameInputs) {
  std::vector<double> Times;
  std::unique_ptr<Workload> W;
  uint64_t Hash = 0;
  SameInputs = true;
  const double Begin = nowMs();
  CoreRotation Rotation;
  while (Times.size() < 3 || (Times.size() < 9 && nowMs() - Begin < 1500)) {
    W.reset();
    W = makeWorkload(Name);
    W->setJobs(defaultJobs());
    Rotation.next();
    double T0 = nowMs();
    W->setup(Seed);
    Times.push_back((nowMs() - T0) / 1000);
    SameInputs = SameInputs && (Times.size() == 1 || W->inputHash() == Hash);
    Hash = W->inputHash();
  }
  SetupS = median(Times);
  return W;
}

int runWorkload(const std::string &Name, uint64_t Seed, double Seconds,
                bool Trace) {
  if (!Trace) {
    double SetupS;
    bool Same;
    std::unique_ptr<Workload> W = setUp(Name, Seed, SetupS, Same);
    const uint64_t Fixed = std::max<uint64_t>(11, W->fixedOps());
    LoopResult R = runLoop(*W, Seconds, false, Fixed);
    uint64_t Failed = R.Failed + !Same;
    double Ratio = static_cast<double>(Failed) / static_cast<double>(R.Attempted);
    // The tail of wall time is printed (the workload's *_tail rows) but
    // not returned: it follows the host's steal time. On a shared 4-vCPU
    // VM, across 5 seeds of 25 s runs, its IQR over median was 2.2 to 4.1
    // times that of the CPU tail on cold-unit, corpus-cold and engine-run.
    Tail CpuTail = tail(R.CpuMs);
    std::map<std::string, double> Ms = {{"setup_s", SetupS},
                                        {"latency_ms_p50", median(R.Ms)},
                                        {"cpu_ms_p50", median(R.CpuMs)},
                                        {"cpu_ms_tail", CpuTail.Value},
                                        {"peak_rss_mb", R.PeakRssMb}};
    printRow(Name, Row{"cpu_ms_tail_pct", CpuTail.Pct, "%",
                       "cpu_ms_tail's percentile, of " +
                           std::to_string(CpuTail.N) + " ops"});
    printRow(Name, Row{"failed_ratio", Ratio, "ratio",
                       std::to_string(Failed) + " of " +
                           std::to_string(R.Attempted) + " ops failed" +
                           (Same ? "" : "; set-ups disagreed on inputs")});
    const size_t Tenth = R.Ms.size() / 10;
    printRow(Name, Row{"peak_rss_mb_end", peakRssMb(), "MiB",
                       "after " + std::to_string(R.Attempted) + " ops; " +
                           "peak_rss_mb is after " + std::to_string(Fixed)});
    printRow(Name,
             Row{"latency.last_over_first_tenth",
                 median({R.Ms.end() - Tenth, R.Ms.end()}) /
                     median({R.Ms.begin(), R.Ms.begin() + Tenth}),
                 "ratio", "median op time, last tenth of the run over first"});
    for (const Row &Rw : W->describe(R))
      printRow(Name, Rw);
    printResult(Failed == 0, R.Attempted, Failed, Ms);
    return 0;
  }

  std::unique_ptr<Workload> W = makeWorkload(Name);
  W->setJobs(defaultJobs());
  W->setup(Seed);
  std::map<std::string, double> Out;
  std::vector<Row> Rows;
  Totals Sum;
  W->traced(Seconds, Out, Rows, Sum);
  for (const Row &R : Rows)
    printRow(Name, R);
  printResult(Sum.Failed == 0, Sum.Attempted, Sum.Failed, Out);
  return 0;
}

/// The benchmark's own checks: the tail rule on known sample counts,
/// same seed -> same inputs, and a corrupted reference failing ops.
int selfTest() {
  int Bad = 0;
  auto Expect = [&](bool Cond, const std::string &What) {
    std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What.c_str());
    Bad += !Cond;
  };
  auto Ramp = [](size_t N) {
    std::vector<double> V;
    for (size_t I = N; I > 0; --I)
      V.push_back(static_cast<double>(I)); // Descending: tail() must sort.
    return V;
  };
  Expect(!tail(Ramp(10)).Valid, "tail: 10 samples have no tail");
  Tail T11 = tail(Ramp(11));
  Expect(T11.Valid && T11.Value == 1 && std::fabs(T11.Pct - 100.0 / 11) < 1e-9,
         "tail: 11 samples -> p9.09, the smallest");
  Tail T100 = tail(Ramp(100));
  Expect(T100.Value == 90 && T100.Pct == 90, "tail: 100 samples -> p90 = 90");
  Tail T1000 = tail(Ramp(1000));
  Expect(T1000.Value == 990 && T1000.Pct == 99,
         "tail: 1000 samples -> p99 = 990");
  Expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");

  for (const std::string &Name : workloadNames()) {
    auto A = makeWorkload(Name), B = makeWorkload(Name), C = makeWorkload(Name);
    A->setJobs(defaultJobs());
    A->setup(7);
    B->setup(7);
    C->setup(8);
    Expect(A->inputHash() == B->inputHash(), Name + ": same seed, same inputs");
    Expect(A->inputHash() != C->inputHash(),
           Name + ": another seed, other inputs");
    LoopResult Good = runLoop(*A, 0, false, 3, 3);
    Expect(Good.Attempted == 3 && Good.Failed == 0,
           Name + ": ops pass against the reference");
    A->corruptReferences();
    LoopResult Broken = runLoop(*A, 0, false, 3, 3);
    Expect(Broken.Failed == Broken.Attempted && Broken.Attempted == 3,
           Name + ": a corrupted reference fails every op");
  }
  std::printf("self-test: %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = -1;
  int Trace = -1;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--self-test")
      return selfTest();
    if (I + 1 >= argc)
      usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    if (A == "--workload")
      Workload = V;
    else if (A == "--seed")
      Seed = parseNumber("--seed", V, UINT64_MAX);
    else if (A == "--seconds")
      Seconds = static_cast<double>(parseNumber("--seconds", V, 600));
    else if (A == "--trace")
      Trace = static_cast<int>(parseNumber("--trace", V, 1));
    else
      usage(("unknown option " + A).c_str());
  }
  if (!makeWorkload(Workload))
    usage(("unknown workload '" + Workload + "'").c_str());
  if (Seconds < 1 || Trace < 0)
    usage("--seconds (>= 1) and --trace are required");
  try {
    return runWorkload(Workload, Seed, Seconds, Trace == 1);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "vaultperf: %s\n", E.what());
    return 1;
  }
}
