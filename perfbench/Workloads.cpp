//===- Workloads.cpp - The four benchmark workloads -----------------------===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
// cold-unit     one large all-clean unit through vaultc --emit-c: lexing,
//               parsing, flow checking and lowering dominate.
// corpus-cold   many tiny programs, each in a fresh compiler: the fixed
//               cost of one compilation dominates.
// edit-session  one vaultd client editing an open 256-function unit:
//               cache replay, framing and re-parsing dominate while the
//               flow checker does almost nothing.
//
// corpus-cold and edit-session measure at jobs 1; their traced runs add
// a companion loop at min(4, cores) jobs, whose difference is the cost
// of the worker threads (sema.jobs_overhead_ms). Their ops are short
// (0.2 ms and 20-40 ms), and at 4 jobs on a shared 4-vCPU VM each op
// waits for every vCPU to wake: across 5 seeds of 10 s runs the median
// pass spread (IQR over median) 0.36 at 4 jobs against 0.10 at 1, the
// median edit 0.30 against 0.14. cold-unit's phases are long enough to
// amortize the wake-ups, so it measures at min(4, cores) jobs.
// engine-run    checked programs under the tree-walker and the VM: the
//               dynamic engines do all the timed work.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Inputs.h"

#include "corpus/Corpus.h"
#include "interp/Interp.h"
#include "lexer/Lexer.h"
#include "lower/CEmitter.h"
#include "sema/CheckCache.h"
#include "server/Server.h"
#include "support/DiagnosticsFormat.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>

using namespace vault;

namespace perf {
namespace {

std::string fmt(const char *F, double V) {
  char B[64];
  std::snprintf(B, sizeof(B), F, V);
  return B;
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / static_cast<double>(V.size());
}

/// Mean (or median) over ops of one span name's total (or self) time.
double profileStat(const std::vector<OpProfile> &Ps, const std::string &Name,
                   bool Self = false, bool Median = false) {
  std::vector<double> V;
  for (const OpProfile &P : Ps) {
    auto It = P.find(Name);
    V.push_back(It == P.end() ? 0 : Self ? It->second.SelfMs : It->second.Ms);
  }
  return Median ? median(V) : mean(V);
}

double counterMean(const LoopResult &R, const std::string &Name) {
  std::vector<double> V;
  for (const auto &C : R.Counters) {
    auto It = C.find(Name);
    V.push_back(It == C.end() ? 0 : It->second);
  }
  return mean(V);
}

/// The flow/key/type counters the checker's metrics registry keeps.
const char *const CheckerCounters[] = {
    "flow.fixpoint_iterations", "flow.keyset_ops",  "flow.joins",
    "keys.allocated",           "types.arena_bytes", "check.flow_checks_run"};

void copyCounters(const Metrics &M, std::map<std::string, double> &Out) {
  for (const char *Name : CheckerCounters)
    Out[Name] = static_cast<double>(M.value(Name));
}

/// Lexer::lexAll over \p Bs, \p Reps times: median ms of one pass and
/// the tokens of one pass.
std::pair<double, double> lexPass(const std::vector<Buffer> &Bs, int Reps) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  std::vector<uint32_t> Ids;
  for (const Buffer &B : Bs)
    Ids.push_back(SM.addBuffer(B.first, B.second));
  std::vector<double> Ms;
  double Tokens = 0;
  for (int R = 0; R < Reps; ++R) {
    Tokens = 0;
    double T0 = nowMs();
    for (uint32_t Id : Ids)
      Tokens += static_cast<double>(Lexer(SM, Id, Diags).lexAll().size());
    Ms.push_back(nowMs() - T0);
  }
  return {median(Ms), Tokens};
}


/// Per-layer metrics every checking workload reports, per compilation.
/// \p T is the traced loop at the workload's job count; \p TN and \p T1
/// are the traced loops at min(4, cores) jobs and at one job, one of
/// them \p T itself. \p CheckSpan is the span around the check call and
/// \p PerOp the compilations in one op. The lexer figures are per
/// compilation.
void checkLayers(const LoopResult &T, const LoopResult &TN,
                 const LoopResult &T1, double LexMs, double LexTokens,
                 double Lines, const std::string &CheckSpan, double PerOp,
                 std::map<std::string, double> &Out) {
  auto M = [&](const std::string &N) {
    return profileStat(T.Profiles, N) / PerOp;
  };
  double ParseMs = M("parse");
  Out["lexer.lex_ms"] = LexMs;
  Out["lexer.tokens_per_s"] = LexMs > 0 ? LexTokens / (LexMs / 1000) : 0;
  Out["parser.parse_ms"] = ParseMs;
  Out["parser.self_ms"] = ParseMs - LexMs;
  Out["parser.lines_per_s"] = ParseMs > 0 ? Lines / (ParseMs / 1000) : 0;
  Out["sema.check_ms"] = M(CheckSpan);
  Out["sema.construct_ms"] = M("sema.construct");
  Out["sema.register_ms"] = M("register-decls");
  Out["sema.elab_ms"] = M("elab-signatures");
  Out["sema.flow_ms"] = M("flow-check");
  Out["sema.flow_fn_sum_ms"] = M("check *");
  Out["sema.fingerprint_ms"] = M("fingerprint");
  Out["sema.merge_ms"] = M("merge");
  for (const char *Name : CheckerCounters)
    Out[Name] = counterMean(T, Name) / PerOp;
  double Flow1 = profileStat(T1.Profiles, "flow-check");
  double FlowN = profileStat(TN.Profiles, "flow-check");
  Out["sema.flow_speedup"] = FlowN > 0 ? Flow1 / FlowN : 0;
  Out["sema.jobs_overhead_ms"] =
      (profileStat(TN.Profiles, CheckSpan, false, true) -
       profileStat(T1.Profiles, CheckSpan, false, true)) /
      PerOp;
}

/// An untraced loop split around a traced one; the ratio of their
/// medians is the cost of tracing, with drift over the run cancelled.
std::pair<LoopResult, LoopResult> tracedPair(Workload &W, double Seconds,
                                             uint64_t MinOps,
                                             uint64_t MaxTracedOps,
                                             std::map<std::string, double> &Out) {
  LoopResult U = runLoop(W, Seconds / 2, false, (MinOps + 1) / 2);
  LoopResult T = runLoop(W, Seconds, true, MinOps, MaxTracedOps);
  LoopResult U2 = runLoop(W, Seconds / 2, false, (MinOps + 1) / 2);
  U.Ms.insert(U.Ms.end(), U2.Ms.begin(), U2.Ms.end());
  U.Attempted += U2.Attempted;
  U.Failed += U2.Failed;
  U.DiagMismatches += U2.DiagMismatches;
  Out["trace.overhead_ratio"] = median(T.Ms) / median(U.Ms);
  return {std::move(U), std::move(T)};
}

/// Adds a traced run's loops to its totals, its diagnostics-text
/// mismatch count and its rows, then one row per span name of the
/// traced loop \p Tr: mean total and self time per op.
void finishTraced(Totals &Sum, std::vector<Row> &Rows,
                  std::map<std::string, double> &Out, const LoopResult &Tr,
                  std::initializer_list<std::pair<const char *, const LoopResult *>>
                      Loops) {
  double Mismatches = 0;
  for (const auto &[What, R] : Loops) {
    Sum.Attempted += R->Attempted;
    Sum.Failed += R->Failed;
    Mismatches += static_cast<double>(R->DiagMismatches);
    Rows.push_back(Row{std::string("ops.") + What,
                       static_cast<double>(R->Attempted), "count",
                       "failed " + std::to_string(R->Failed) +
                           ", diag text mismatches " +
                           std::to_string(R->DiagMismatches)});
  }
  Out["check.diag_text_mismatches"] = Mismatches;
  std::map<std::string, bool> Names;
  for (const OpProfile &P : Tr.Profiles)
    for (const auto &[Name, T] : P)
      Names[Name] = true;
  for (const auto &[Name, _] : Names)
    Rows.push_back(Row{"span." + Name, profileStat(Tr.Profiles, Name), "ms",
                       "self " + fmt("%.4f", profileStat(Tr.Profiles, Name, true)) +
                           " ms"});
}

//===----------------------------------------------------------------------===//
// cold-unit
//===----------------------------------------------------------------------===//

class ColdUnit : public Workload {
public:
  static constexpr unsigned Functions = 2048;
  static constexpr unsigned PerBuffer = 32;

  void setup(uint64_t Seed) override {
    U = makeUnit(Seed, Functions, PerBuffer);
    OpResult Unused;
    Ref = compile(1, nullptr, Unused);
  }

  uint64_t inputHash() const override { return hashBuffers(U.Buffers); }

  OpResult op(uint64_t, SpanLog *L) override {
    OpResult O;
    Result X = compile(Jobs, L, O);
    O.DiagMismatches = X.Diags != Ref.Diags;
    O.Ok = Ref.Ok && Ref.Functions == U.Functions && Ref.NDiags == 0 &&
           X.Ok == Ref.Ok && X.Functions == Ref.Functions &&
           X.NDiags == Ref.NDiags && !O.DiagMismatches && X.C == Ref.C;
    O.Counters = std::move(X.Counters);
    return O;
  }

  uint64_t fixedOps() const override { return 20; }

  void corruptReferences() override { Ref.C += "/* corrupted */"; }

  std::vector<Row> describe(const LoopResult &R) const override {
    Tail T = tail(R.Ms);
    return {{"compile_ms_p50", median(R.Ms), "ms", "latency_ms_p50"},
            {"compile_ms_tail", T.Value, "ms",
             "p" + fmt("%.2f", T.Pct) + " of " + std::to_string(T.N)},
            {"emitted_c_lines",
             static_cast<double>(CEmitter::countCodeLines(Ref.C)), "count", ""},
            {"input.functions", static_cast<double>(U.Functions), "count", ""},
            {"input.lines", static_cast<double>(U.Lines), "count", ""},
            {"input.buffers", static_cast<double>(U.Buffers.size()), "count",
             "of " + std::to_string(PerBuffer) + " functions"}};
  }

  void traced(double Seconds, std::map<std::string, double> &Out,
              std::vector<Row> &Rows, Totals &Sum) override {
    auto [Un, Tr] = tracedPair(*this, Seconds * 0.3, 3, UINT64_MAX, Out);
    LoopResult T1 = tracedAtJobs(1, 2);
    auto [LexMs, Tokens] = lexPass(U.Buffers, 5);
    checkLayers(Tr, Tr, T1, LexMs, Tokens, U.Lines, "sema.check", 1, Out);
    Out["lower.emit_ms"] = profileStat(Tr.Profiles, "lower.emit");
    Out["lower.c_lines"] = static_cast<double>(CEmitter::countCodeLines(Ref.C));
    finishTraced(Sum, Rows, Out, Tr,
                 {{"untraced", &Un}, {"traced", &Tr}, {"jobs1", &T1}});
  }

private:
  struct Result {
    bool Ok = false;
    unsigned Functions = 0;
    size_t NDiags = 0;
    std::string Diags;
    std::string C;
    std::map<std::string, double> Counters;
  };

  /// vaultc --emit-c over the unit: timed from construction to the
  /// emitted text.
  Result compile(unsigned J, SpanLog *L, OpResult &O) {
    Result R;
    Stopwatch Clock;
    std::unique_ptr<VaultCompiler> C;
    {
      SpanLog::Scope S(L, "sema.construct");
      C = std::make_unique<VaultCompiler>();
    }
    C->setJobs(J);
    if (L)
      C->setTracer(&L->tracer());
    {
      SpanLog::Scope S(L, "sema.queue");
      for (const Buffer &B : U.Buffers)
        C->queueSource(B.first, B.second);
    }
    {
      SpanLog::Scope S(L, "sema.check");
      R.Ok = C->check();
    }
    if (R.Ok) {
      SpanLog::Scope S(L, "lower.emit");
      R.C = CEmitter(*C).emitProgram();
    }
    O.Ms = Clock.wallMs();
    O.CpuMs = Clock.cpuMs();
    R.Functions = C->stats().FunctionsChecked;
    R.NDiags = C->diags().size();
    R.Diags = C->diags().render();
    if (L)
      copyCounters(C->metrics(), R.Counters);
    return R;
  }

  Unit U;
  Result Ref;
};

//===----------------------------------------------------------------------===//
// corpus-cold
//===----------------------------------------------------------------------===//

class CorpusCold : public Workload {
public:
  /// Generated programs (each with its mutant) beside the 60 corpus
  /// programs: enough that the median program barely depends on the
  /// seed.
  static constexpr unsigned Draw = 200;

  void setup(uint64_t Seed) override {
    Programs = makeCorpusSet(Seed, Draw);
    RefDiags.clear();
    Lines = 0;
    for (const Program &P : Programs) {
      Lines += static_cast<unsigned>(std::count(P.Text.begin(), P.Text.end(), '\n'));
      VaultCompiler C;
      C.queueSource(P.Name + ".vlt", P.Text);
      C.check();
      RefDiags.push_back(C.diags().render());
    }
  }

  uint64_t inputHash() const override { return hashPrograms(Programs); }

  /// Ten passes over the set.
  uint64_t fixedOps() const override { return 10 * Programs.size(); }

  /// Op I checks program I mod N, so the programs take turns and ops
  /// I*N .. I*N+N-1 form one pass, as a build re-checking every file.
  /// The op's time is the verdict time: construction to verdict.
  OpResult op(uint64_t I, SpanLog *L) override {
    const size_t Idx = I % Programs.size();
    const Program &P = Programs[Idx];
    OpResult O;
    Stopwatch Clock;
    std::unique_ptr<VaultCompiler> C;
    {
      SpanLog::Scope S(L, "sema.construct");
      C = std::make_unique<VaultCompiler>();
    }
    C->setJobs(Jobs);
    if (L)
      C->setTracer(&L->tracer());
    C->queueSource(P.Name + ".vlt", P.Text);
    bool Accept;
    {
      SpanLog::Scope S(L, "sema.check");
      Accept = C->check();
    }
    O.Ms = Clock.wallMs();
    O.CpuMs = Clock.cpuMs();
    O.Ok = Accept == P.ExpectAccept;
    if (!Accept)
      for (DiagId Id : P.MustReport)
        O.Ok = O.Ok && C->diags().has(Id);
    O.DiagMismatches = C->diags().render() != RefDiags[Idx];
    if (L)
      copyCounters(C->metrics(), O.Counters);
    return O;
  }

  void corruptReferences() override {
    for (Program &P : Programs)
      P.ExpectAccept = !P.ExpectAccept;
  }

  std::vector<Row> describe(const LoopResult &R) const override {
    const size_t N = Programs.size();
    std::vector<double> Passes;
    for (size_t At = 0; At + N <= R.Ms.size(); At += N) {
      Passes.push_back(0);
      for (size_t I = At; I < At + N; ++I)
        Passes.back() += R.Ms[I];
    }
    Tail T = tail(R.Ms), TP = tail(Passes);
    unsigned Mutants = 0;
    for (const Program &P : Programs)
      Mutants += P.Mutant;
    return {{"verdict_ms_p50", median(R.Ms), "ms", "latency_ms_p50"},
            {"verdict_ms_tail", T.Value, "ms",
             "p" + fmt("%.3f", T.Pct) + " of " + std::to_string(T.N) +
                 " verdicts"},
            {"pass_ms_p50", median(Passes), "ms", "sum over one pass"},
            {"pass_ms_tail", TP.Value, "ms",
             "p" + fmt("%.2f", TP.Pct) + " of " + std::to_string(TP.N) +
                 " passes"},
            {"input.programs", static_cast<double>(Programs.size()), "count",
             std::to_string(Programs.size() - 2 * Draw) + " corpus + " +
                 std::to_string(Draw) + " generated + their mutants"},
            {"input.mutant_share",
             static_cast<double>(Mutants) / static_cast<double>(Programs.size()),
             "ratio", ""},
            {"input.lines", static_cast<double>(Lines), "count", ""}};
  }

  void traced(double Seconds, std::map<std::string, double> &Out,
              std::vector<Row> &Rows, Totals &Sum) override {
    // Whole passes, so every program counts once per pass.
    const uint64_t Pass = Programs.size();
    auto [Un, Tr] = tracedPair(*this, Seconds * 0.3, 2 * Pass, 2 * Pass, Out);
    // Diagnostics text differs from the jobs-1 reference in about one
    // verdict of a thousand at 4 jobs; twenty passes give it a chance.
    LoopResult TN = tracedAtJobs(HostJobs, 20 * Pass);
    std::vector<Buffer> Bs;
    for (const Program &P : Programs)
      Bs.emplace_back(P.Name, P.Text);
    auto [LexMs, Tokens] = lexPass(Bs, 5);
    double N = static_cast<double>(Pass);
    checkLayers(Tr, TN, Tr, LexMs / N, Tokens / N, Lines / N, "sema.check", 1,
                Out);
    finishTraced(Sum, Rows, Out, Tr,
                 {{"untraced", &Un}, {"traced", &Tr}, {"jobsN", &TN}});
  }

private:
  unsigned loopJobs(unsigned) const override { return 1; }

  std::vector<Program> Programs;
  std::vector<std::string> RefDiags;
  unsigned Lines = 0;
};

//===----------------------------------------------------------------------===//
// edit-session
//===----------------------------------------------------------------------===//

class EditSession : public Workload {
public:
  static constexpr unsigned Functions = 256;
  static constexpr unsigned PerBuffer = 32;
  static constexpr unsigned Triplets = 8;

  void setup(uint64_t Seed) override {
    U = makeUnit(Seed, Functions, PerBuffer);
    Script = makeEditScript(U, Seed, Triplets);
    std::vector<Buffer> State = U.Buffers;
    RefDiags.clear();
    ChangeLines.clear();
    for (size_t I = 0; I < Script.size(); ++I) {
      const Edit &E = Script[I];
      State[E.BufferIndex].second = E.Text;
      RefDiags.push_back(coldDiagnostics(State));
      ChangeLines.push_back(request(I + 1, "change", State[E.BufferIndex]));
    }
  }

  uint64_t inputHash() const override {
    std::vector<Buffer> All = U.Buffers;
    for (const Edit &E : Script)
      All.emplace_back(std::to_string(E.K) + ":" + std::to_string(E.BufferIndex),
                       E.Text);
    return hashBuffers(All);
  }

  bool sessionTrace() const override { return true; }

  /// Two passes over the script.
  uint64_t fixedOps() const override { return 2 * Script.size(); }

  /// Opens the unit in a fresh session with a fresh warm cache, and
  /// runs the first (cold) check.
  void start(SpanLog *Session) override {
    Store = std::make_unique<CheckMemoryStore>();
    Gate = std::make_unique<server::Admission>(8, 30000);
    server::Config Cfg;
    Cfg.Jobs = Jobs;
    Ws = std::make_unique<server::Workspace>(Cfg, *Gate, *Store);
    if (Session) {
      server::Telemetry T;
      T.Trc = &Session->tracer();
      Ws->setTelemetry(T);
    }
    for (size_t B = 0; B < U.Buffers.size(); ++B)
      Ws->handleLine(request(100000 + B, "open", U.Buffers[B]));
    Ws->handleLine(CheckLine);
  }

  void stop() override {
    Entries = Store->entryCount();
    Ws.reset();
    Gate.reset();
    Store.reset();
  }

  OpResult op(uint64_t I, SpanLog *L) override {
    size_t Step = I % Script.size();
    OpResult O;
    std::string Changed, Checked;
    Stopwatch Clock;
    {
      SpanLog::Scope S(L, "server.change");
      Changed = Ws->handleLine(ChangeLines[Step]);
    }
    {
      SpanLog::Scope S(L, "server.check");
      Checked = Ws->handleLine(CheckLine);
    }
    O.Ms = Clock.wallMs();
    O.CpuMs = Clock.cpuMs();

    std::optional<json::Value> Ch = json::parseJson(Changed, nullptr);
    std::optional<json::Value> Ck = json::parseJson(Checked, nullptr);
    const json::Value *Res = Ck ? Ck->find("result") : nullptr;
    const json::Value *Diags = Res ? Res->find("diagnostics") : nullptr;
    O.Ok = Ch && Ch->find("result") && Diags && Diags->isString();
    O.DiagMismatches = !O.Ok || Diags->Str != RefDiags[Step];
    O.Ok = O.Ok && !O.DiagMismatches;
    if (L && Res) {
      const json::Value *Stats = Res->find("stats");
      std::optional<json::Value> St =
          Stats ? json::parseJson(Stats->Str, nullptr) : std::nullopt;
      if (const json::Value *Cs = St ? St->find("counters") : nullptr)
        for (const auto &[Name, V] : Cs->Members)
          O.Counters[Name] = V.Num;
      O.Counters["server.response_bytes"] = static_cast<double>(Checked.size());
    }
    return O;
  }

  void corruptReferences() override {
    for (std::string &D : RefDiags)
      D += " ";
  }

  std::vector<Row> describe(const LoopResult &R) const override {
    Tail T = tail(R.Ms);
    return {{"edit_check_ms_p50", median(R.Ms), "ms", "latency_ms_p50"},
            {"edit_check_ms_tail", T.Value, "ms",
             "p" + fmt("%.2f", T.Pct) + " of " + std::to_string(T.N) +
                 " edits"},
            {"input.functions", static_cast<double>(U.Functions), "count", ""},
            {"input.lines", static_cast<double>(U.Lines), "count", ""},
            {"input.buffers", static_cast<double>(U.Buffers.size()), "count", ""},
            {"input.edit_steps", static_cast<double>(Script.size()), "count",
             "body-only, leak, fix in equal thirds"}};
  }

  void traced(double Seconds, std::map<std::string, double> &Out,
              std::vector<Row> &Rows, Totals &Sum) override {
    // A session trace keeps every span of the loop, so the traced loop
    // is capped at five passes over the script.
    auto [Un, Tr] =
        tracedPair(*this, Seconds * 0.3, Script.size(), 5 * Script.size(), Out);
    LoopResult TN = tracedAtJobs(HostJobs, Script.size());
    auto [LexMs, Tokens] = lexPass(U.Buffers, 5);
    checkLayers(Tr, TN, Tr, LexMs, Tokens, U.Lines, "check", 1, Out);
    Rows.push_back(Row{"unmeasured.sema.construct_ms", 0, "ms",
                       "the server builds its compiler inside its check span, "
                       "with no public call or span around the construction"});
    Out["server.change_ms"] = profileStat(Tr.Profiles, "server.change");
    Out["server.check_ms"] = profileStat(Tr.Profiles, "server.check");
    Out["server.frame_overhead_ms"] =
        profileStat(Tr.Profiles, "server.check", true);
    Out["server.response_bytes"] = counterMean(Tr, "server.response_bytes");
    double Hits = counterMean(Tr, "cache.hits");
    double Misses = counterMean(Tr, "cache.misses");
    Out["cache.hits"] = Hits;
    Out["cache.misses"] = Misses;
    Out["cache.invalidated"] = counterMean(Tr, "cache.invalidated");
    Out["cache.hit_ratio"] = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
    Out["cache.entries"] = static_cast<double>(Entries);
    finishTraced(Sum, Rows, Out, Tr,
                 {{"untraced", &Un}, {"traced", &Tr}, {"jobsN", &TN}});
  }

private:
  unsigned loopJobs(unsigned) const override { return 1; }

  /// renderDiagnosticsJson of a fresh jobs-1 compiler over \p Bs: what
  /// a one-shot vaultc --diagnostics-format=json prints.
  static std::string coldDiagnostics(const std::vector<Buffer> &Bs) {
    VaultCompiler C;
    for (const Buffer &B : Bs)
      C.queueSource(B.first, B.second);
    C.check();
    return renderDiagnosticsJson(C.diags());
  }

  static std::string request(uint64_t Id, const char *Method,
                             const Buffer &B) {
    return "{\"jsonrpc\": \"2.0\", \"id\": " + std::to_string(Id) +
           ", \"method\": \"" + Method + "\", \"params\": {\"name\": " +
           json::str(B.first) + ", \"text\": " + json::str(B.second) + "}}";
  }

  Unit U;
  std::vector<Edit> Script;
  std::vector<std::string> RefDiags;
  std::vector<std::string> ChangeLines;
  const std::string CheckLine =
      "{\"jsonrpc\": \"2.0\", \"id\": 0, \"method\": \"check\"}";
  std::unique_ptr<CheckMemoryStore> Store;
  std::unique_ptr<server::Admission> Gate;
  std::unique_ptr<server::Workspace> Ws;
  size_t Entries = 0;
};

//===----------------------------------------------------------------------===//
// engine-run
//===----------------------------------------------------------------------===//

class EngineRun : public Workload {
public:
  static constexpr unsigned PerShape = 4;
  static constexpr unsigned Draw = 30;

  void setup(uint64_t Seed) override {
    Programs = makeEngineSet(Seed, PerShape, Draw);
    Checked.clear();
    Ref.clear();
    for (const Program &P : Programs) {
      auto C = std::make_unique<VaultCompiler>();
      C->queueSource(P.Name + ".vlt", P.Text);
      C->check();
      interp::Interp I(*C);
      bool Ran = I.run("main");
      Ref.push_back(observe(I));
      Ref.back().Ran = Ran;
      Checked.push_back(std::move(C));
    }
  }

  uint64_t inputHash() const override { return hashPrograms(Programs); }

  /// Sweeps run on one thread; each starts on the next core.
  void start(SpanLog *) override {
    WalkerMs.clear();
    VmMs.clear();
    Rotation = std::make_unique<CoreRotation>();
  }

  void stop() override { Rotation.reset(); }

  uint64_t fixedOps() const override { return 20; }

  OpResult op(uint64_t, SpanLog *L) override {
    OpResult O;
    unsigned WalkerDet = 0, VmDet = 0;
    double Walker = sweep<interp::Interp>(L, "interp", O, WalkerDet);
    double Vm = sweep<vm::Vm>(L, "vm", O, VmDet);
    WalkerMs.push_back(Walker);
    VmMs.push_back(Vm);
    O.Ms = Walker + Vm;
    O.Counters["interp.violations"] = WalkerDet;
    O.Counters["vm.violations"] = VmDet;
    return O;
  }

  void corruptReferences() override {
    for (Observed &R : Ref)
      R.Output += "corrupted\n";
  }

  std::vector<Row> describe(const LoopResult &R) const override {
    Tail T = tail(R.Ms), TW = tail(WalkerMs), TV = tail(VmMs);
    std::map<std::string, unsigned> Groups;
    unsigned Mutants = 0;
    for (const Program &P : Programs) {
      ++Groups[P.Group];
      Mutants += P.Mutant;
    }
    std::string Mix;
    for (const auto &[G, N] : Groups)
      Mix += (Mix.empty() ? "" : ", ") + G + " " + std::to_string(N);
    auto Note = [&](const Tail &X) {
      return "p" + fmt("%.2f", X.Pct) + " of " + std::to_string(X.N);
    };
    return {{"both_sweep_ms_p50", median(R.Ms), "ms",
             "latency_ms_p50: walker sweep + VM sweep"},
            {"both_sweep_ms_tail", T.Value, "ms", Note(T)},
            {"walker_sweep_ms_p50", median(WalkerMs), "ms", ""},
            {"walker_sweep_ms_tail", TW.Value, "ms", Note(TW)},
            {"vm_sweep_ms_p50", median(VmMs), "ms", ""},
            {"vm_sweep_ms_tail", TV.Value, "ms", Note(TV)},
            {"input.programs", static_cast<double>(Programs.size()), "count",
             Mix},
            {"input.mutant_share",
             static_cast<double>(Mutants) / static_cast<double>(Programs.size()),
             "ratio", ""}};
  }

  void traced(double Seconds, std::map<std::string, double> &Out,
              std::vector<Row> &Rows, Totals &Sum) override {
    auto [Un, Tr] = tracedPair(*this, Seconds * 0.35, 3, UINT64_MAX, Out);
    double N = static_cast<double>(Programs.size());
    for (const char *E : {"interp", "vm"}) {
      std::string P = E;
      Out[P + ".setup_us"] = profileStat(Tr.Profiles, P + ".setup") / N * 1000;
      for (const char *G : {"loop", "calls", "fields", "corpus", "fuzz"})
        Out[P + ".run_ms." + G] = profileStat(Tr.Profiles, P + ".run." + G);
      Out[P + ".violations"] = counterMean(Tr, P + ".violations");
    }
    // The VM compiles each function on its first call; this times the
    // compiler alone over every function body of the set.
    std::vector<double> CompileMs;
    for (int Rep = 0; Rep < 5; ++Rep) {
      double T0 = nowMs();
      for (const auto &C : Checked)
        for (const Decl *D : C->ast().program().Decls)
          if (const auto *F = dyn_cast<FuncDecl>(D); F && F->body())
            vm::compileFunction(*C, F);
      CompileMs.push_back(nowMs() - T0);
    }
    Out["vm.compile_ms"] = median(CompileMs);
    finishTraced(Sum, Rows, Out, Tr, {{"untraced", &Un}, {"traced", &Tr}});
  }

private:
  struct Observed {
    bool Ran = false;
    bool Trapped = false;
    std::string Trap;
    std::string Output;
    std::vector<std::string> Violations;
    unsigned Detections = 0;
    bool operator==(const Observed &O) const {
      return Ran == O.Ran && Trapped == O.Trapped && Trap == O.Trap &&
             Output == O.Output && Violations == O.Violations &&
             Detections == O.Detections;
    }
  };

  static Observed observe(interp::Machine &M) {
    Observed O;
    O.Trapped = M.trapped();
    O.Trap = M.trapMessage();
    for (const std::string &L : M.output())
      O.Output += L + "\n";
    O.Violations = M.violations();
    O.Detections = M.totalViolations() +
                   static_cast<unsigned>(M.regions().leakedRegions().size() +
                                         M.sockets().leakedSockets().size() +
                                         M.gdi().leakedDcs().size() +
                                         M.locks().leakedMutexes().size());
    return O;
  }

  /// Runs every program once on a fresh engine; returns the summed
  /// construction + run time and adds its CPU time to \p Op.
  /// Observation happens outside the timing.
  template <typename Engine>
  double sweep(SpanLog *L, const std::string &Prefix, OpResult &Op,
               unsigned &Detections) {
    const std::string Setup = Prefix + ".setup";
    Rotation->next();
    double Total = 0;
    for (size_t I = 0; I < Programs.size(); ++I) {
      const Program &P = Programs[I];
      const std::string Run = Prefix + ".run." + P.Group;
      Stopwatch Clock;
      std::unique_ptr<Engine> E;
      {
        SpanLog::Scope S(L, Setup.c_str());
        E = std::make_unique<Engine>(*Checked[I]);
      }
      bool Ran;
      {
        SpanLog::Scope S(L, Run.c_str());
        Ran = E->run("main");
      }
      Total += Clock.wallMs();
      Op.CpuMs += Clock.cpuMs();
      Observed O = observe(*E);
      O.Ran = Ran;
      Detections += O.Detections;
      bool Expected = true;
      if (P.Group == "corpus")
        Expected = P.ExpectAccept ? Ran && O.Detections == 0
                                  : (O.Detections > 0) == P.ExpectDynViolations;
      Op.Ok = Op.Ok && Expected && O == Ref[I];
    }
    return Total;
  }

  std::vector<Program> Programs;
  std::vector<std::unique_ptr<VaultCompiler>> Checked;
  std::vector<Observed> Ref;
  std::vector<double> WalkerMs, VmMs;
  std::unique_ptr<CoreRotation> Rotation;
};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"cold-unit", "corpus-cold",
                                                 "edit-session", "engine-run"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "cold-unit")
    return std::make_unique<ColdUnit>();
  if (Name == "corpus-cold")
    return std::make_unique<CorpusCold>();
  if (Name == "edit-session")
    return std::make_unique<EditSession>();
  if (Name == "engine-run")
    return std::make_unique<EngineRun>();
  return nullptr;
}

LoopResult Workload::tracedAtJobs(unsigned J, uint64_t Ops) {
  const unsigned Keep = Jobs;
  Jobs = J;
  LoopResult R = runLoop(*this, 0, true, Ops, Ops);
  Jobs = Keep;
  return R;
}

LoopResult runLoop(Workload &W, double Seconds, bool Traced, uint64_t MinOps,
                   uint64_t MaxOps) {
  LoopResult R;
  std::unique_ptr<SpanLog> Session;
  if (Traced && W.sessionTrace())
    Session = std::make_unique<SpanLog>();
  W.start(Session.get());
  const double Deadline = nowMs() + Seconds * 1000;
  for (uint64_t I = 0; I < MaxOps && (I < MinOps || nowMs() < Deadline); ++I) {
    std::unique_ptr<SpanLog> Own;
    SpanLog *L = Session.get();
    if (Traced && !L) {
      Own = std::make_unique<SpanLog>();
      L = Own.get();
    }
    if (L)
      L->beginOp(static_cast<uint32_t>(I + 1));
    OpResult O = W.op(I, L);
    R.Ms.push_back(O.Ms);
    R.CpuMs.push_back(O.CpuMs);
    if (++R.Attempted == MinOps)
      R.PeakRssMb = peakRssMb();
    R.Failed += !O.Ok;
    R.DiagMismatches += O.DiagMismatches;
    if (Traced)
      R.Counters.push_back(std::move(O.Counters));
    if (Own)
      R.Profiles.push_back(Own->finish()[static_cast<uint32_t>(I + 1)]);
  }
  W.stop();
  if (Session) {
    std::map<uint32_t, OpProfile> P = Session->finish();
    for (uint64_t I = 0; I < R.Attempted; ++I)
      R.Profiles.push_back(P[static_cast<uint32_t>(I + 1)]);
  }
  return R;
}

} // namespace perf
