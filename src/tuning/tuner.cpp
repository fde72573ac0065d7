#include "tuning/tuner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "exec/kernel_analysis.hpp"

namespace gpurf::tuning {

namespace ir = gpurf::ir;
using gpurf::exec::PrecisionMap;
using gpurf::fp::FloatFormat;
using gpurf::fp::table3_formats;

/// Fixpoint iteration bound of the greedy descent over all registers.
constexpr int kMaxPasses = 4;

std::vector<double> QualityProbe::evaluate_batch(
    const std::vector<const exec::PrecisionMap*>& pmaps) {
  std::vector<double> scores(pmaps.size(), 0.0);
  gpurf::common::parallel_for(
      pmaps.size(), [&](size_t i) { scores[i] = evaluate(*pmaps[i]); });
  return scores;
}

size_t QualityProbe::accept_prefix(
    const std::vector<const exec::PrecisionMap*>& pmaps,
    quality::QualityLevel level, std::vector<double>& scores) {
  scores = evaluate_batch(pmaps);
  size_t accepted = 0;
  while (accepted < scores.size() && meets(scores[accepted], level))
    ++accepted;
  return accepted;
}

TuneResult tune_precision(const ir::Kernel& k, QualityProbe& probe,
                          const TunerOptions& opt_in) {
  TunerOptions opt = opt_in;
  if (opt.speculate_batch <= 0)
    opt.speculate_batch = gpurf::common::ThreadPool::current().size();

  TuneResult res;
  res.pmap.per_reg.assign(k.num_regs(), gpurf::fp::format_for_bits(32));

  // Registers eligible for tuning: f32 registers that appear in the
  // program.  Those with more static reads and writes are tuned first so
  // that high-traffic values settle before low-traffic ones refine around
  // them (the TACO'17 heuristic orders by estimated impact).
  const exec::KernelAnalysis ka(k);
  const auto& df = ka.dataflow();
  const auto uses = [&](uint32_t r) {
    return df.use_count[r] + df.def_count[r];
  };
  std::vector<uint32_t> targets;
  for (uint32_t r = 0; r < k.num_regs(); ++r)
    if (k.regs[r].type == ir::Type::F32 && uses(r) > 0) targets.push_back(r);
  std::sort(targets.begin(), targets.end(), [&](uint32_t a, uint32_t b) {
    if (uses(a) != uses(b)) return uses(a) > uses(b);
    return a < b;
  });

  res.f32_regs = static_cast<int>(targets.size());
  res.slices_before = 8 * res.f32_regs;

  // Cancellation/deadline checkpoint + progress mailbox.  Polled before
  // every probe batch so a stop request is honoured within one batch; the
  // evaluation counter is published after each batch returns.
  auto checkpoint = [&] {
    if (opt.cancel) {
      opt.cancel->tuner_evaluations.store(res.evaluations,
                                          std::memory_order_relaxed);
      opt.cancel->checkpoint();
    }
  };

  const auto& formats = table3_formats();  // widest (32) .. narrowest (8)

  // Index of a register's current format in the Table-3 list.
  auto fmt_index_in = [&](const PrecisionMap& pm, uint32_t r) {
    for (size_t i = 0; i < formats.size(); ++i)
      if (formats[i] == pm.per_reg[r]) return i;
    GPURF_ASSERT(false, "format escaped Table-3 set");
    return size_t{0};
  };
  auto fmt_index = [&](uint32_t r) { return fmt_index_in(res.pmap, r); };

  checkpoint();
  double last_score = probe.evaluate(res.pmap);
  ++res.evaluations;
  GPURF_CHECK(probe.meets(last_score, opt.level),
              "kernel '" << k.name
                         << "' fails the quality threshold at full "
                            "precision; the metric or reference is broken");

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    if (opt.cancel)
      opt.cancel->tuner_pass.store(pass + 1, std::memory_order_relaxed);
    if (opt.speculate_batch <= 1) {
      // Original serial greedy descent.
      for (uint32_t r : targets) {
        size_t idx = fmt_index(r);
        while (idx + 1 < formats.size()) {
          const FloatFormat trial = formats[idx + 1];
          const FloatFormat saved = res.pmap.per_reg[r];
          res.pmap.per_reg[r] = trial;
          checkpoint();
          const double score = probe.evaluate(res.pmap);
          ++res.evaluations;
          if (probe.meets(score, opt.level)) {
            last_score = score;
            ++idx;
            changed = true;
          } else {
            res.pmap.per_reg[r] = saved;
            break;
          }
        }
      }
    } else {
      // Speculative batch descent.  The serial loop's candidate sequence
      // is deterministic along the optimistic all-accept path: narrow the
      // cursor register one step at a time until it bottoms out, then move
      // to the next target.  We materialise the next K cumulative
      // assignments of that path, score them as one chain
      // (QualityProbe::accept_prefix), and accept the longest prefix whose
      // probes all pass.  On the first failure
      // the serial algorithm would restore that register and move past it
      // — which is exactly how the cursor advances here — so the accepted
      // assignment matches the serial run bit for bit, for every K.
      const size_t k_max = 4 * static_cast<size_t>(opt.speculate_batch);
      size_t k_cur = static_cast<size_t>(opt.speculate_batch);
      size_t t = 0;  // cursor into `targets`
      while (t < targets.size()) {
        struct Candidate {
          uint32_t reg = 0;
          PrecisionMap pmap;  ///< cumulative assignment if all before pass
        };
        std::vector<Candidate> chain;
        chain.reserve(k_cur);
        {
          PrecisionMap cur = res.pmap;
          size_t ct = t;
          size_t idx = fmt_index_in(cur, targets[ct]);
          while (chain.size() < k_cur && ct < targets.size()) {
            if (idx + 1 >= formats.size()) {
              ++ct;
              if (ct < targets.size()) idx = fmt_index_in(cur, targets[ct]);
              continue;
            }
            ++idx;
            cur.per_reg[targets[ct]] = formats[idx];
            chain.push_back(Candidate{targets[ct], cur});
          }
        }
        if (chain.empty()) break;  // every remaining target is at minimum

        std::vector<const PrecisionMap*> pmaps(chain.size());
        for (size_t i = 0; i < chain.size(); ++i) pmaps[i] = &chain[i].pmap;
        checkpoint();
        std::vector<double> scores;
        const size_t accepted = probe.accept_prefix(pmaps, opt.level, scores);
        res.evaluations += static_cast<int>(chain.size());

        // Adaptive width: rejections mean the optimistic path was wrong
        // early and deep speculation is waste; full acceptance means the
        // descent is on a long monotone run worth speculating deeper —
        // but only grow when the pool can actually absorb the batch (on a
        // 1-wide pool every speculated candidate is serial work, so deep
        // chains would just multiply the waste a rejection discards).
        // Results are K-invariant by construction, so the width policy
        // never affects the accepted assignment.
        const bool can_grow = gpurf::common::ThreadPool::current().size() > 1;
        k_cur = accepted == chain.size()
                    ? std::min(can_grow ? k_cur * 2 : k_cur, k_max)
                    : std::max<size_t>(1, k_cur / 2);
        if (accepted > 0) {
          res.pmap = chain[accepted - 1].pmap;
          last_score = scores[accepted - 1];
          changed = true;
        }
        if (accepted < chain.size()) {
          // Serial semantics: the failed register keeps its last accepted
          // format and the scan moves to the register after it.
          const uint32_t failed_reg = chain[accepted].reg;
          while (t < targets.size() && targets[t] != failed_reg) ++t;
          ++t;
        } else {
          // Whole batch accepted: resume from the chain's last register,
          // which may still have narrower formats to try.
          const uint32_t tail_reg = chain.back().reg;
          while (t < targets.size() && targets[t] != tail_reg) ++t;
        }
      }
    }
    if (!changed) break;
  }

  // Final validation of the accepted assignment.  With defer_validation
  // the caller batches this probe with other pending validations; the
  // accepted score is bit-identical to what the probe would return here
  // (evaluate() is a pure function of the pmap by contract).
  if (opt.defer_validation) {
    res.final_score = last_score;
  } else {
    checkpoint();
    res.final_score = probe.evaluate(res.pmap);
    ++res.evaluations;
    GPURF_ASSERT(probe.meets(res.final_score, opt.level),
                 "accepted assignment fails validation");
  }
  if (opt.cancel)
    opt.cancel->tuner_evaluations.store(res.evaluations,
                                        std::memory_order_relaxed);

  res.slices_after = 0;
  for (uint32_t r : targets) res.slices_after += res.pmap.per_reg[r].slices();
  return res;
}

}  // namespace gpurf::tuning
