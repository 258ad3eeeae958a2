//===- Inputs.h - Seeded benchmark inputs ------------------------*- C++ -*-===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark feeds the program is generated here from
/// the workload seed, before anything is timed. The program under test
/// receives only the generated texts; it never sees the seed.
///
//===----------------------------------------------------------------------===//

#ifndef VAULTPERF_INPUTS_H
#define VAULTPERF_INPUTS_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perf {

/// A named source buffer.
using Buffer = std::pair<std::string, std::string>;

/// A clean-by-construction unit of protocol functions split into
/// buffers of \p PerBuffer functions. The first buffer opens with the
/// region/socket/mutex preludes. Every function carries a
/// `int salt = NNNN;` line as its first statement: the edit session
/// rewrites that line for body-only edits and leak edits.
struct Unit {
  std::vector<Buffer> Buffers;
  unsigned Functions = 0;
  unsigned Lines = 0;
};
Unit makeUnit(uint64_t Seed, unsigned Functions, unsigned PerBuffer);

/// One program of the corpus-cold and engine-run sets, with the
/// verdict the corpus index or the generator's ground truth expects.
struct Program {
  std::string Name;
  std::string Text;
  /// Where it came from, also the engine-run grouping: "corpus",
  /// "fuzz", or a bench_vm shape ("loop", "calls", "fields").
  std::string Group;
  bool ExpectAccept = true;
  /// Error ids a rejected corpus program must report.
  std::vector<vault::DiagId> MustReport;
  bool Mutant = false;
  /// Corpus programs only: dynamic violations expected when run.
  bool ExpectDynViolations = false;
};

/// The 60 indexed corpus programs (includes resolved) followed by
/// \p Draw generator programs of this seed and a mutant of each.
std::vector<Program> makeCorpusSet(uint64_t Seed, unsigned Draw);

/// bench_vm's Loop, Calls and TrackedFields shapes, \p PerShape
/// instances each at seeded sizes (within 5% of a base size, so the
/// total work barely depends on the seed), then the runnable corpus
/// programs, then \p Draw generator programs and their mutants.
std::vector<Program> makeEngineSet(uint64_t Seed, unsigned PerShape,
                                   unsigned Draw);

/// One step of the edit session: the buffer to replace and its new
/// text.
struct Edit {
  enum Kind { Body, Leak, Fix };
  Kind K = Body;
  size_t BufferIndex = 0;
  std::string Text;
};

/// A closed edit script over \p U: \p Triplets seeded (buffer,
/// function) picks, each edited body-only, then given a seeded leak,
/// then fixed; a second pass over the same picks restores the original
/// salts, so the buffers end where they began and the script can
/// repeat.
std::vector<Edit> makeEditScript(const Unit &U, uint64_t Seed,
                                 unsigned Triplets);

/// FNV-1a over every byte of a set of buffers or programs, for the
/// same-seed-same-inputs check.
uint64_t hashBuffers(const std::vector<Buffer> &Bs);
uint64_t hashPrograms(const std::vector<Program> &Ps);

} // namespace perf

#endif // VAULTPERF_INPUTS_H
