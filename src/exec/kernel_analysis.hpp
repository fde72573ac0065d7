#pragma once
// Shared per-kernel execution analysis (ISSUE 1 tentpole, exec layer).
//
// BlockExec used to rebuild the CFG and recompute immediate post-dominators
// for every thread block it executed — once per grid block, per functional
// run, per tuner probe.  For a tuning session that is hundreds of thousands
// of identical recomputations of the same static facts.
//
// KernelAnalysis hoists everything the interpreter needs that depends only
// on the kernel text into one immutable, shareable object:
//   * the CFG with its dominator facts (ipdom: SIMT reconvergence points),
//   * a flattened decoded instruction stream: block-major, contiguous,
//     with per-instruction flags (has_dst, control class) predecoded so
//     the dispatch loop stops chasing the opcode-info table.
//
// Analyses memoize in an AnalysisCache: a thread-safe map keyed by kernel
// address and guarded by a structural fingerprint, so the rare address
// reuse after a kernel is destroyed can never alias a stale entry.
// Concurrent tuner probes share one immutable analysis.  Each gpurf::Engine
// owns a private cache (bound per-thread while the Engine executes work);
// code outside any Engine falls back to a process-wide default via
// analyze_kernel().

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "ir/kernel.hpp"

namespace gpurf::exec {

/// Fused (opcode, type) lane operation, resolved at decode time so the SoA
/// warp dispatcher switches exactly once per warp instruction (ISSUE 2).
/// Every variant the scalar exec_lane reference distinguishes at runtime
/// gets its own enumerator; the two paths must stay bit-for-bit equal.
enum class LaneOp : uint8_t {
  kAddF, kAddI, kSubF, kSubI, kMulF, kMulI, kMadF, kMadI,
  kDivF, kDivS, kDivU, kRemS, kRemU,
  kMinF, kMinS, kMinU, kMaxF, kMaxS, kMaxU,
  kAbsF, kAbsI, kNegF, kNegI,
  kAnd, kOr, kXor, kNot, kShl, kShrS, kShrU,
  kSin, kCos, kEx2, kLg2, kSqrt, kRsqrt, kRcp,
  kMov, kSelp,
  kCvtF2S, kCvtF2U, kCvtS2F, kCvtU2F, kCvtBits,
  kSetpF, kSetpS, kSetpU,
  kLdGlobal, kLdShared, kTex2d,
  kStore,    ///< ST_GLOBAL / ST_SHARED (handled by the store path)
  kControl,  ///< BRA / RET / BAR (no lane data path)
};

/// One predecoded instruction: the IR instruction plus the hot flags the
/// dispatch loop consults every step.
struct DecodedInst {
  const gpurf::ir::Instruction* in = nullptr;
  LaneOp lane_op = LaneOp::kControl;
  uint8_t num_srcs = 0;     ///< copied from the instruction (gather count)
  bool has_dst = false;
  bool is_store = false;    ///< ST_GLOBAL / ST_SHARED
  bool is_control = false;  ///< BRA / RET / BAR (no lane data path)
  /// LD_GLOBAL / LD_SHARED / TEX2D: side effects (bounds checks, the
  /// memory trace) must still execute when the destination write is
  /// elided.
  bool is_mem_read = false;
  /// Destination is statically dead right after this write (PR 9): the
  /// interpreter may skip quantize/range-check/writeback — and for pure
  /// ALU ops the whole data path — without observable effect.
  bool dead_dst = false;
  /// Block-major flattened instruction index (position in the decoded
  /// stream).  Indexes launch-dependent side tables such as
  /// ExecContext::mem_proven (ISSUE 10).
  uint32_t flat = 0;
};

class KernelAnalysis {
 public:
  explicit KernelAnalysis(const gpurf::ir::Kernel& k);

  const analysis::Cfg& cfg() const { return cfg_; }
  const std::vector<uint32_t>& ipdom() const { return cfg_.ipdom; }

  /// The kernel's one liveness pass: block live-in/out, pressure and
  /// undefined reads, plus per-point live sets, dead-dst flags and linear
  /// live intervals — computed once and cached beside the CFG, shared by
  /// the interpreter, range analysis, memory prover, allocator and
  /// soft-error model.
  const analysis::Dataflow& dataflow() const { return dataflow_; }

  /// Decoded instruction at (block, index) — contiguous block-major layout.
  const DecodedInst& inst(uint32_t blk, uint32_t idx) const {
    return decoded_[dataflow_.inst_first[blk] + idx];
  }
  uint32_t block_size(uint32_t blk) const { return dataflow_.block_size[blk]; }
  uint32_t num_blocks() const {
    return static_cast<uint32_t>(dataflow_.block_size.size());
  }

  /// Structural fingerprint of a kernel: cheap, order-sensitive hash over
  /// the instruction stream.  Used to invalidate cache entries whose
  /// kernel address was reused by a different kernel.
  static uint64_t fingerprint(const gpurf::ir::Kernel& k);

  uint64_t source_fingerprint() const { return fingerprint_; }

 private:
  analysis::Cfg cfg_;
  analysis::Dataflow dataflow_;
  std::vector<DecodedInst> decoded_;
  uint64_t fingerprint_ = 0;
};

/// Bounded, thread-safe memo of KernelAnalysis objects.  Entries are
/// shared_ptrs, so a wholesale reset never invalidates analyses still in
/// use; rebuilds are cheap.  One instance per Engine (session isolation);
/// a process-wide default serves code running outside any Engine.
class AnalysisCache {
 public:
  /// Fetch (or build and memoize) the analysis for `k`.  The returned
  /// object is immutable and remains valid independently of the cache.
  std::shared_ptr<const KernelAnalysis> get(const gpurf::ir::Kernel& k);

  /// Number of live entries (diagnostics / tests).
  size_t size() const;

  /// Lifetime hit/miss counters (ISSUE 4 metrics): a hit served a memoized
  /// analysis, a miss built one.  Relaxed monotone counters, safe to read
  /// concurrently with get().
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    std::shared_ptr<const KernelAnalysis> analysis;
  };

  /// Bound: a process that churns through many transient kernels (fuzzers,
  /// interactive explorers) must not pin every dead kernel's analysis.
  static constexpr size_t kMaxEntries = 1024;

  mutable std::mutex mu_;
  std::unordered_map<const gpurf::ir::Kernel*, Entry> cache_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

namespace detail {
/// Cache bound to the calling thread by ScopedAnalysisCache; null means
/// "use the process-wide default".
inline thread_local AnalysisCache* tl_current_analysis_cache = nullptr;
}  // namespace detail

/// The process-wide default cache (used outside any Engine).
AnalysisCache& default_analysis_cache();

/// RAII: bind `cache` as the calling thread's analysis cache for the scope.
class ScopedAnalysisCache {
 public:
  explicit ScopedAnalysisCache(AnalysisCache* cache)
      : saved_(detail::tl_current_analysis_cache) {
    detail::tl_current_analysis_cache = cache;
  }
  ~ScopedAnalysisCache() { detail::tl_current_analysis_cache = saved_; }

  ScopedAnalysisCache(const ScopedAnalysisCache&) = delete;
  ScopedAnalysisCache& operator=(const ScopedAnalysisCache&) = delete;

 private:
  AnalysisCache* saved_;
};

/// Fetch (or build and memoize) the analysis for `k` from the calling
/// thread's current cache — the Engine-bound cache when inside an Engine
/// call, else the process-wide default.  Thread-safe; the caller should
/// hold the shared_ptr for the duration of use.
std::shared_ptr<const KernelAnalysis> analyze_kernel(const gpurf::ir::Kernel& k);

}  // namespace gpurf::exec
