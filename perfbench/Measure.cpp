//===- Measure.cpp - Samples, percentiles and benchmark spans -------------===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "support/JsonParse.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <stdexcept>
#include <time.h>

namespace perf {

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuMs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 + static_cast<double>(T.tv_nsec) / 1e6;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

Tail tail(std::vector<double> V) {
  Tail T;
  T.N = V.size();
  if (T.N < 11)
    return T;
  std::sort(V.begin(), V.end());
  T.Valid = true;
  T.Value = V[T.N - 11];
  T.Pct = 100.0 * static_cast<double>(T.N - 10) / static_cast<double>(T.N);
  return T;
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so it
  // would report the launching process's peak when that is larger.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // The value is in kB.
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

CoreRotation::CoreRotation() {
  CPU_ZERO(&Original);
  if (sched_getaffinity(0, sizeof(Original), &Original) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Original))
        Cores.push_back(C);
}

CoreRotation::~CoreRotation() {
  if (!Cores.empty())
    sched_setaffinity(0, sizeof(Original), &Original);
}

void CoreRotation::next() {
  if (Cores.size() < 2)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cores[Turn++ % Cores.size()], &One);
  sched_setaffinity(0, sizeof(One), &One);
}

SpanLog::Scope::Scope(SpanLog *L, const char *Name) : L(L) {
  if (!L)
    return;
  Span S;
  S.Name = Name;
  S.Begin = L->Trc->nowUs();
  S.Op = L->CurOp;
  S.Parent = L->Open.empty() ? -1 : L->Open.back();
  Idx = static_cast<int>(L->Spans.size());
  L->Spans.push_back(std::move(S));
  L->Open.push_back(Idx);
}

SpanLog::Scope::~Scope() {
  if (!L)
    return;
  L->Spans[Idx].End = L->Trc->nowUs();
  L->Open.pop_back();
}

namespace {

std::string foldName(const std::string &Name) {
  for (const char *Prefix : {"check ", "elab "})
    if (Name.rfind(Prefix, 0) == 0)
      return std::string(Prefix) + "*";
  return Name;
}

bool contains(const Span &Outer, const Span &Inner) {
  return Outer.Begin <= Inner.Begin && Inner.End <= Outer.End;
}

} // namespace

std::map<uint32_t, OpProfile> SpanLog::finish() {
  const size_t BenchCount = Spans.size();
  std::string Err;
  vault::json::ParseLimits Limits;
  Limits.MaxBytes = size_t(1) << 30;
  std::optional<vault::json::Value> Doc =
      vault::json::parseJson(Trc->json(), &Err, Limits);
  if (!Doc)
    throw std::runtime_error("unreadable program trace: " + Err);
  if (const vault::json::Value *Events = Doc->find("traceEvents"))
    for (const vault::json::Value &E : Events->Elems) {
      Span S;
      S.Name = E.find("name")->Str;
      S.Begin = static_cast<uint64_t>(E.find("ts")->Num);
      S.End = S.Begin + static_cast<uint64_t>(E.find("dur")->Num);
      S.Tid = static_cast<uint32_t>(E.find("tid")->Num);
      Spans.push_back(std::move(S));
    }

  // Program spans carry no operation id: they take the op of the
  // benchmark span around them. Sweep in (begin, longest-first,
  // benchmark-first) order keeping one stack of open spans per thread.
  // A span with no enclosing span on its own thread was started by a
  // worker; its parent is the innermost enclosing span of a benchmark
  // span or of a "root" thread -- one whose first span sat directly in
  // a benchmark span, i.e. the thread that called into the program.
  std::vector<int> Order(Spans.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = static_cast<int>(I);
  std::sort(Order.begin(), Order.end(), [&](int A, int B) {
    const Span &X = Spans[A], &Y = Spans[B];
    if (X.Begin != Y.Begin)
      return X.Begin < Y.Begin;
    if (X.End != Y.End)
      return X.End > Y.End;
    return (X.Tid == Span::BenchTid) > (Y.Tid == Span::BenchTid);
  });
  std::map<uint32_t, std::vector<int>> Stacks;
  std::set<uint32_t> Roots = {Span::BenchTid};
  for (int I : Order) {
    Span &S = Spans[I];
    std::vector<int> &Own = Stacks[S.Tid];
    while (!Own.empty() && !contains(Spans[Own.back()], S))
      Own.pop_back();
    if (static_cast<size_t>(I) >= BenchCount) {
      int Parent = Own.empty() ? -1 : Own.back();
      if (Parent < 0) {
        for (uint32_t Tid : Roots)
          for (int J : Stacks[Tid])
            if (contains(Spans[J], S) &&
                (Parent < 0 || Spans[J].End - Spans[J].Begin <
                                   Spans[Parent].End - Spans[Parent].Begin))
              Parent = J;
        if (Parent >= 0 && Spans[Parent].Tid == Span::BenchTid)
          Roots.insert(S.Tid);
      }
      S.Parent = Parent;
      S.Op = Parent < 0 ? 0 : Spans[Parent].Op;
    }
    Own.push_back(I);
  }

  // Self time: duration minus the union of the children's intervals.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[S.Parent].emplace_back(S.Begin, S.End);
  std::map<uint32_t, OpProfile> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, Reach = S.Begin;
    for (auto [B, E] : K) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    uint64_t Dur = S.End - S.Begin;
    SpanTotals &T = Out[S.Op][foldName(S.Name)];
    T.Ms += Dur / 1000.0;
    T.SelfMs += (Dur - std::min(Dur, Covered)) / 1000.0;
  }
  return Out;
}

} // namespace perf
