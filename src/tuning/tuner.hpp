#pragma once
// Floating-point precision tuning (paper §4.1, adopting Angerd et al.,
// TACO 2017).
//
// The tuner searches, per floating-point register, for the narrowest
// Table-3 format such that the program still meets a user-selected quality
// threshold on a set of representative sample inputs.  Like the original
// heuristic it is data driven: no guarantee is given for inputs outside the
// sample set (§4.1).
//
// Search strategy: greedy monotone descent per register (try the next
// narrower format while quality holds), iterated over all registers until a
// fixpoint, followed by a final validation run.  Each candidate assignment
// is evaluated by actually executing the kernel with writes quantized
// through the candidate formats (exec::PrecisionMap) and scoring the output
// against the exact reference.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/cancel.hpp"
#include "exec/machine.hpp"
#include "ir/kernel.hpp"
#include "quality/metrics.hpp"

namespace gpurf::tuning {

/// Evaluates candidate precision assignments against the quality metric.
/// Implemented by the workload harness: runs the kernel functionally on the
/// sample inputs with `pmap` active and scores the output vs. the exact
/// reference.
///
/// Concurrency contract: the tuner itself calls the probe from one thread
/// at a time, but evaluate_batch() and accept_prefix() score their
/// candidates concurrently on the current thread pool (the defaults call
/// evaluate() from several pool threads at once).  evaluate() must
/// therefore be safe under concurrent calls and behave as a pure function
/// of `pmap` apart from thread-safe bookkeeping; meets() must be pure.
class QualityProbe {
 public:
  virtual ~QualityProbe() = default;
  virtual double evaluate(const exec::PrecisionMap& pmap) = 0;
  virtual bool meets(double score, quality::QualityLevel level) const = 0;

  /// Score a whole batch at once.  The default fans the candidates out over
  /// the current thread pool and calls evaluate(); scores must equal
  /// per-candidate evaluate().
  virtual std::vector<double> evaluate_batch(
      const std::vector<const exec::PrecisionMap*>& pmaps);

  /// Score a speculative chain and return how many leading candidates meet
  /// `level` (the first index whose score fails, or pmaps.size()).
  /// `scores` is resized to pmaps.size(); scores[0, accepted] — the
  /// accepted prefix plus, when accepted < size, the first failing
  /// candidate — must equal evaluate() of those candidates.  Entries past
  /// the first failure are unspecified: the tuner discards them, so an
  /// implementation may leave those candidates unscored or abandon them
  /// mid-replay.  The default scores everything through evaluate_batch()
  /// and counts the passing prefix.
  virtual size_t accept_prefix(
      const std::vector<const exec::PrecisionMap*>& pmaps,
      quality::QualityLevel level, std::vector<double>& scores);
};

struct TunerOptions {
  quality::QualityLevel level = quality::QualityLevel::kPerfect;
  /// Speculative batch width of the greedy descent.  1 = the original
  /// serial loop.  K > 1 hands the next K candidates of the optimistic
  /// all-accept path to QualityProbe::accept_prefix as one chain and
  /// accepts the longest valid prefix; the accepted assignment is
  /// bit-for-bit identical to the serial result (only `evaluations`
  /// grows: it counts every submitted candidate, including those past the
  /// first failure, which the probe may leave unscored).
  /// <= 0 = auto: the current thread pool's width at tune time (an Engine
  /// resolves this to its own thread count at construction).  This is
  /// the starting width: a rejection halves it (quality failed early —
  /// deep speculation was wasted), a fully accepted batch doubles it,
  /// clamped to [1, 4 * speculate_batch].  The accepted assignment stays
  /// bit-identical by construction for every width sequence, so the
  /// adaptation never changes results, only probe waste.
  int speculate_batch = 0;
  /// Skip the final validation probe at the end of tune_precision.  The
  /// probe contract makes evaluate() a pure function of the pmap, so the
  /// validation score always equals the score of the last accepted
  /// evaluation; callers that tune several quality levels back-to-back
  /// (the pipeline tunes perfect + high) set this and batch all final
  /// validations through one QualityProbe::evaluate_batch call instead of
  /// running them serially.  final_score is still set (to the accepted
  /// score) and the deferred validation must still be performed by the
  /// caller — see workloads::compute_pipeline.
  bool defer_validation = false;
  /// Cooperative cancellation / deadline checkpoint, polled between probe
  /// batches (never mid-probe), plus the tuner's progress mailbox
  /// (pass / evaluation counters).  Null disables both.  When a stop is
  /// requested, tune_precision throws common::CancelledError without
  /// touching any caller-visible cache — partial descent state lives only
  /// in the local TuneResult, so a cancelled tune leaves nothing behind.
  /// (Non-const: the tuner writes the token's progress counters.)
  gpurf::common::CancelToken* cancel = nullptr;
};

struct TuneResult {
  exec::PrecisionMap pmap;     ///< format per register (f32 regs narrowed)
  int evaluations = 0;         ///< number of functional quality probes
  int f32_regs = 0;            ///< number of tuned registers
  int slices_before = 0;       ///< total f32 slices at 32-bit
  int slices_after = 0;        ///< total f32 slices after tuning
  double final_score = 0.0;    ///< quality score of the accepted assignment
};

TuneResult tune_precision(const gpurf::ir::Kernel& k, QualityProbe& probe,
                          const TunerOptions& opt);

}  // namespace gpurf::tuning
