//===- Inputs.cpp - Seeded benchmark inputs -------------------------------===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "corpus/Corpus.h"
#include "fuzz/Fuzz.h"

using namespace vault;

namespace perf {
namespace {

/// Four-digit salt: body edits rewrite it in place, so no line or
/// column of any other function moves.
std::string salt(fuzz::Rng &R) { return std::to_string(R.range(1000, 9999)); }

/// A function that consumes a region it is handed, after a loop over a
/// point allocated in it: a key-polymorphic signature with an effect
/// clause, which callers later in the unit satisfy.
std::string regionConsumer(fuzz::Rng &R, const std::string &Name) {
  std::string S = "void " + Name + "(tracked(R) region r, int n) [-R] {\n"
                  "  int salt = " + salt(R) + ";\n"
                  "  R:point p = new(r) point {x=salt; y=n;};\n"
                  "  int i = 0;\n"
                  "  while (i < n) {\n"
                  "    p.x = p.x + i;\n";
  if (R.chance(50))
    S += "    if (p.x > " + std::to_string(R.range(2, 40)) + ") {\n"
         "      tracked region t = Region.create();\n"
         "      Region.delete(t);\n"
         "    } else {\n"
         "      p.y = p.y - 1;\n"
         "    }\n";
  else
    S += "    p.y = p.y + p.x * " + std::to_string(R.range(2, 9)) + ";\n";
  S += "    i = i + 1;\n"
       "  }\n"
       "  Region.delete(r);\n"
       "}\n";
  return S;
}

/// Nested loops allocating and deleting regions each iteration, then
/// either deleting the outer region or handing it to an earlier
/// consumer.
std::string regionLoops(fuzz::Rng &R, const std::string &Name,
                        const std::string &Consumer) {
  std::string S = "void " + Name + "(int n, bool b) {\n"
                  "  int salt = " + salt(R) + ";\n"
                  "  tracked region q = Region.create();\n"
                  "  int i = 0;\n"
                  "  while (i < n) {\n"
                  "    int j = 0;\n"
                  "    while (j < i) {\n"
                  "      tracked(T) region t = Region.create();\n"
                  "      T:point p = new(t) point {x=i; y=j;};\n"
                  "      p.x = p.x + salt;\n";
  if (R.chance(50))
    S += "      if (b) {\n"
         "        tracked region u = Region.create();\n"
         "        Region.delete(u);\n"
         "      }\n";
  S += "      Region.delete(t);\n"
       "      j = j + 1;\n"
       "    }\n"
       "    i = i + 1;\n"
       "  }\n";
  if (!Consumer.empty())
    S += "  if (b) { " + Consumer + "(q, n); } else { Region.delete(q); }\n";
  else
    S += "  Region.delete(q);\n";
  S += "}\n";
  return S;
}

/// The socket automaton driven through the keyed `status` variant of
/// bind2: each case arm gets the key back in a different state.
std::string socketMachine(fuzz::Rng &R, const std::string &Name) {
  std::string S = "void " + Name + "(int port, bool b) {\n"
                  "  int salt = " + salt(R) + ";\n"
                  "  sockaddr addr = new sockaddr {port=port;};\n"
                  "  tracked(@raw) sock s = socket('INET, 'STREAM, 0);\n"
                  "  switch (bind2(s, addr)) {\n"
                  "    case 'Ok:\n"
                  "      listen(s, " + std::to_string(R.range(1, 16)) + ");\n";
  if (R.chance(50))
    S += "      int k = 0;\n"
         "      while (k < port) {\n"
         "        tracked(C) sock c = accept(s, addr);\n"
         "        receive(c, make_buffer(salt));\n"
         "        close(c);\n"
         "        k = k + 1;\n"
         "      }\n";
  else
    S += "      if (b) {\n"
         "        tracked(C) sock c = accept(s, addr);\n"
         "        close(c);\n"
         "      }\n";
  S += "      close(s);\n"
       "    case 'Error(code):\n"
       "      print_int(code + salt);\n"
       "      close(s);\n"
       "  }\n"
       "}\n";
  return S;
}

/// A guarded cell mutated through a revocable borrow each iteration,
/// under its held mutex.
std::string guardedBorrow(fuzz::Rng &R, const std::string &Name) {
  std::string S = "void " + Name + "(int n) {\n"
                  "  int salt = " + salt(R) + ";\n"
                  "  tracked(M) mutex m = mutex_create();\n"
                  "  mutex_acquire(m);\n"
                  "  guarded<M> tracked(D) cell d = cell_new(m, salt);\n"
                  "  int i = 0;\n"
                  "  while (i < n) {\n"
                  "    borrow b = d;\n"
                  "    b.val = b.val + i;\n";
  if (R.chance(50))
    S += "    if (b.val > " + std::to_string(R.range(10, 99)) + ") {\n"
         "      b.val = b.val - 1;\n"
         "    }\n";
  S += "    endborrow b;\n"
       "    i = i + 1;\n"
       "  }\n"
       "  d.val = d.val - 1;\n"
       "  free(d);\n"
       "  mutex_release(m);\n"
       "  mutex_destroy(m);\n"
       "}\n";
  return S;
}

unsigned countLines(const std::string &Text) {
  unsigned N = 0;
  for (char C : Text)
    N += C == '\n';
  return N;
}

uint64_t fnv(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H ^ 0xff; // Separator, so ("ab","c") and ("a","bc") differ.
}

/// Generator programs of this seed: the clean program and its mutant,
/// for \p Draw indices.
void appendFuzzDraw(std::vector<Program> &Out, uint64_t Seed, unsigned Draw) {
  fuzz::Generator G(Seed);
  for (unsigned I = 0; I < Draw; ++I) {
    fuzz::GeneratedProgram P = G.generate(I);
    Out.push_back(Program{P.Name, P.Text, "fuzz", P.ExpectClean, {}, false,
                          false});
    if (std::optional<fuzz::GeneratedProgram> M = G.mutate(I))
      Out.push_back(Program{M->Name, M->Text, "fuzz", M->ExpectClean, {}, true,
                            false});
  }
}

Program shape(std::string Name, std::string Text, const char *Group) {
  Program P;
  P.Name = std::move(Name);
  P.Text = std::move(Text);
  P.Group = Group;
  return P;
}

Program corpusProgram(const corpus::ProgramInfo &Info) {
  return Program{Info.Name, corpus::load(Info.Name), "corpus",
                 Info.ExpectAccept, Info.MustReport, false,
                 Info.ExpectDynViolations};
}

} // namespace

Unit makeUnit(uint64_t Seed, unsigned Functions, unsigned PerBuffer) {
  fuzz::Rng R(Seed * 0x9E3779B97F4A7C15ull + 1);
  Unit U;
  std::string Cur;
  for (const char *Inc : {"region.vlt", "sockets.vlt", "locks.vlt", "io.vlt"})
    Cur += corpus::loadInclude(Inc);
  std::string LastConsumer;
  for (unsigned I = 0; I < Functions; ++I) {
    std::string Name = "fn" + std::to_string(I);
    unsigned Pick = static_cast<unsigned>(R.below(100));
    if (Pick < 20) {
      Cur += regionConsumer(R, Name);
      LastConsumer = Name;
    } else if (Pick < 45) {
      Cur += regionLoops(R, Name, LastConsumer);
    } else if (Pick < 70) {
      Cur += socketMachine(R, Name);
    } else {
      Cur += guardedBorrow(R, Name);
    }
    if ((I + 1) % PerBuffer == 0 || I + 1 == Functions) {
      U.Lines += countLines(Cur);
      U.Buffers.emplace_back("unit" + std::to_string(U.Buffers.size()) +
                                 ".vlt",
                             std::move(Cur));
      Cur.clear();
    }
  }
  U.Functions = Functions;
  return U;
}

std::vector<Program> makeCorpusSet(uint64_t Seed, unsigned Draw) {
  std::vector<Program> Out;
  for (const corpus::ProgramInfo &Info : corpus::index())
    Out.push_back(corpusProgram(Info));
  appendFuzzDraw(Out, Seed, Draw);
  return Out;
}

std::vector<Program> makeEngineSet(uint64_t Seed, unsigned PerShape,
                                   unsigned Draw) {
  fuzz::Rng R(Seed * 0xBF58476D1CE4E5B9ull + 7);
  auto Size = [&](int Base) {
    return std::to_string(R.range(Base - Base / 20, Base + Base / 20));
  };
  const std::string Io = corpus::loadInclude("io.vlt");
  std::vector<Program> Out;
  for (unsigned I = 0; I < PerShape; ++I) {
    std::string N = std::to_string(I);
    // Loop: arithmetic dispatch only, no calls, no protocol events.
    Out.push_back(shape("loop" + N,
                        Io + "int work(int n) {\n"
                             "  int i = 0;\n"
                             "  int acc = 0;\n"
                             "  while (i < n) {\n"
                             "    acc = acc + i * 3 - (i / 2);\n"
                             "    i = i + 1;\n"
                             "  }\n"
                             "  return acc;\n"
                             "}\n"
                             "void main() { print_int(work(" +
                            Size(5000) + ")); }\n",
                        "loop"));
    // Calls: frame setup, parameter binding, return plumbing.
    Out.push_back(shape("calls" + N,
                        Io + "int fib(int n) {\n"
                             "  if (n < 2) { return n; }\n"
                             "  return fib(n - 1) + fib(n - 2);\n"
                             "}\n"
                             "void main() {\n"
                             "  int k = 0;\n"
                             "  int acc = 0;\n"
                             "  while (k < " +
                            Size(40) +
                            ") {\n"
                            "    acc = acc + fib(12);\n"
                            "    k = k + 1;\n"
                            "  }\n"
                            "  print_int(acc);\n"
                            "}\n",
                        "calls"));
    // TrackedFields: deref checks through a tracked cell each step.
    Out.push_back(shape("fields" + N,
                        Io + corpus::loadInclude("region.vlt") +
                            "void main() {\n"
                            "  tracked(R) region rgn = Region.create();\n"
                            "  R:point pt = new(rgn) point {x=0; y=0;};\n"
                            "  int i = 0;\n"
                            "  while (i < " +
                            Size(1500) +
                            ") {\n"
                            "    pt.x = pt.x + 1;\n"
                            "    pt.y = pt.y + pt.x;\n"
                            "    i = i + 1;\n"
                            "  }\n"
                            "  print_int(pt.y);\n"
                            "  Region.delete(rgn);\n"
                            "}\n",
                        "fields"));
  }
  for (const corpus::ProgramInfo &Info : corpus::index())
    if (Info.Runnable)
      Out.push_back(corpusProgram(Info));
  appendFuzzDraw(Out, Seed, Draw);
  return Out;
}

std::vector<Edit> makeEditScript(const Unit &U, uint64_t Seed,
                                 unsigned Triplets) {
  fuzz::Rng R(Seed * 0x94D049BB133111EBull + 3);
  struct Pick {
    size_t Buffer;
    size_t SaltAt; ///< Offset of the salt digits in the original text.
    std::string Alt;
  };
  const std::string Marker = "int salt = ";
  std::vector<Pick> Picks;
  for (unsigned T = 0; T < Triplets; ++T) {
    Pick P;
    P.Buffer = R.below(U.Buffers.size());
    const std::string &Text = U.Buffers[P.Buffer].second;
    size_t Count = 0;
    for (size_t At = Text.find(Marker); At != std::string::npos;
         At = Text.find(Marker, At + 1))
      ++Count;
    size_t Nth = R.below(Count);
    size_t At = Text.find(Marker);
    while (Nth--)
      At = Text.find(Marker, At + 1);
    P.SaltAt = At + Marker.size();
    P.Alt = std::to_string(R.range(1000, 9999));
    Picks.push_back(P);
  }

  std::vector<std::string> State;
  for (const Buffer &B : U.Buffers)
    State.push_back(B.second);
  std::vector<Edit> Script;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const Pick &P : Picks) {
      std::string &S = State[P.Buffer];
      // Pass 0 writes the alternative salt, pass 1 the original one.
      S.replace(P.SaltAt, 4,
                Pass == 0 ? P.Alt : U.Buffers[P.Buffer].second.substr(P.SaltAt, 4));
      Script.push_back(Edit{Edit::Body, P.Buffer, S});
      // The leak joins the salt line, so no later line moves.
      std::string Leaky = S;
      Leaky.insert(P.SaltAt + 5, " tracked region leak = Region.create();");
      Script.push_back(Edit{Edit::Leak, P.Buffer, Leaky});
      Script.push_back(Edit{Edit::Fix, P.Buffer, S});
    }
  return Script;
}

uint64_t hashBuffers(const std::vector<Buffer> &Bs) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const Buffer &B : Bs)
    H = fnv(fnv(H, B.first), B.second);
  return H;
}

uint64_t hashPrograms(const std::vector<Program> &Ps) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const Program &P : Ps)
    H = fnv(fnv(fnv(H, P.Name), P.Text), P.Group);
  return H;
}

} // namespace perf
