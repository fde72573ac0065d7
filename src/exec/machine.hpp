#pragma once
// Machine-level state shared by the functional interpreter and the timing
// simulator: global memory, textures, launch parameters, and the optional
// precision / range-check hooks.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/range_analysis.hpp"
#include "common/bitutil.hpp"
#include "common/error.hpp"
#include "fp/format.hpp"
#include "ir/kernel.hpp"

namespace gpurf::exec {

class KernelAnalysis;

/// Flat word-addressed global memory.  Buffers are bump-allocated; an
/// address is an index into the word array.  A 128-byte coalescing line is
/// 32 consecutive words.
class GlobalMemory {
 public:
  /// Allocate `nwords` zero-initialised words; returns the base address.
  uint32_t alloc(size_t nwords) {
    const uint32_t base = static_cast<uint32_t>(words_.size());
    words_.resize(words_.size() + nwords, 0);
    if (!dirty_.empty()) dirty_.resize((words_.size() + 63) / 64, 0);
    return base;
  }

  uint32_t alloc(std::span<const uint32_t> contents) {
    const uint32_t base = alloc(contents.size());
    std::copy(contents.begin(), contents.end(), words_.begin() + base);
    return base;
  }

  uint32_t alloc_f32(std::span<const float> contents) {
    const uint32_t base = alloc(contents.size());
    for (size_t i = 0; i < contents.size(); ++i)
      words_[base + i] = gpurf::float_bits(contents[i]);
    return base;
  }

  // Out-of-bounds accesses raise gpurf::Error (GPURF_CHECK) rather than
  // aborting: under soft-error injection (PR 7) a flipped address register
  // can legitimately step outside every buffer, and that must surface as a
  // recoverable detected-unrecoverable-error at the Engine boundary, not
  // terminate the process.  Well-formed workloads never hit these.
  uint32_t read(uint32_t addr) const {
    GPURF_CHECK(addr < words_.size(), "global load out of bounds @" << addr);
    return words_[addr];
  }
  void write(uint32_t addr, uint32_t v) {
    GPURF_CHECK(addr < words_.size(),
                "global store out of bounds @" << addr);
    words_[addr] = v;
    if (!dirty_.empty()) dirty_[addr >> 6] |= uint64_t{1} << (addr & 63);
  }

  // Unchecked variants for accesses the static memory pass proved in
  // bounds (ExecContext::elide_bounds_checks): the proof guarantees the
  // elided check could never have fired, so behaviour is bit-identical by
  // construction.  write_unchecked still feeds the write-log bitmap —
  // elision must never change what block-parallel merge copies.
  uint32_t read_unchecked(uint32_t addr) const { return words_[addr]; }
  void write_unchecked(uint32_t addr, uint32_t v) {
    words_[addr] = v;
    if (!dirty_.empty()) dirty_[addr >> 6] |= uint64_t{1} << (addr & 63);
  }

  /// Write-combine support for block-parallel functional execution: a shard
  /// runs its blocks against a private copy of the memory image with dirty
  /// tracking enabled, and the owner merges each shard's written words in
  /// grid order.  The dirty set is a bitmap (one bit per word), so tracking
  /// cost is bounded by the image size, not by the dynamic store count.
  void begin_write_log() { dirty_.assign((words_.size() + 63) / 64, 0); }

  /// Copy every word `shard` (a private copy of this memory) has written
  /// since begin_write_log() into this image.  Applying shards in ascending
  /// grid order reproduces the serial schedule's final image for every
  /// kernel whose blocks do not read each other's writes (inter-block gmem
  /// communication within one launch is unordered on real hardware too);
  /// overlapping writes resolve to the highest grid index, as serially.
  void merge_written(const GlobalMemory& shard) {
    GPURF_ASSERT(shard.words_.size() == words_.size(),
                 "write-combine merge from a diverged memory image");
    for (size_t w = 0; w < shard.dirty_.size(); ++w) {
      uint64_t bits = shard.dirty_[w];
      while (bits) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const size_t addr = w * 64 + static_cast<size_t>(b);
        words_[addr] = shard.words_[addr];
      }
    }
  }

  /// Word addresses written since begin_write_log(), ascending.  The fuzz
  /// soundness oracle diffs these per-block dynamic store sets against the
  /// static footprint hulls and disjointness verdicts (ISSUE 10); also
  /// handy as a diagnostic.
  std::vector<uint32_t> written_words() const {
    std::vector<uint32_t> out;
    for (size_t w = 0; w < dirty_.size(); ++w) {
      uint64_t bits = dirty_[w];
      while (bits) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        out.push_back(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)));
      }
    }
    return out;
  }

  std::span<const uint32_t> view(uint32_t base, size_t n) const {
    GPURF_ASSERT(base + n <= words_.size(), "view out of bounds");
    return {words_.data() + base, n};
  }

  std::vector<float> read_f32(uint32_t base, size_t n) const {
    std::vector<float> out(n);
    for (size_t i = 0; i < n; ++i)
      out[i] = gpurf::bits_float(read(base + static_cast<uint32_t>(i)));
    return out;
  }

  size_t size() const { return words_.size(); }

 private:
  std::vector<uint32_t> words_;
  /// Dirty-word bitmap; non-empty once begin_write_log() armed tracking.
  std::vector<uint64_t> dirty_;
};

/// 2-D float texture with nearest filtering and clamp-to-edge addressing,
/// fetched through the texture cache in the timing model.
struct Texture {
  int width = 0;
  int height = 0;
  std::vector<float> texels;

  float fetch(int u, int v) const {
    u = std::clamp(u, 0, width - 1);
    v = std::clamp(v, 0, height - 1);
    return texels[size_t(v) * width + u];
  }
  /// Linear texel index after clamping (used as the cache key).
  uint32_t texel_index(int u, int v) const {
    u = std::clamp(u, 0, width - 1);
    v = std::clamp(v, 0, height - 1);
    return static_cast<uint32_t>(v) * width + static_cast<uint32_t>(u);
  }
};

/// Per-f32-register storage format assignment produced by the precision
/// tuner.  Empty per_reg means "everything is binary32".
struct PrecisionMap {
  std::vector<gpurf::fp::FloatFormat> per_reg;

  bool active() const { return !per_reg.empty(); }
  /// Unchecked: the launch entry points validate() the map once.
  const gpurf::fp::FloatFormat& format(uint32_t reg) const {
    return per_reg[reg];
  }
  /// Throws gpurf::Error unless the map is empty or gives each of a
  /// kernel's `num_regs` registers a Table-3 format.
  void validate(uint32_t num_regs) const {
    GPURF_CHECK(!active() || per_reg.size() == num_regs,
                "precision map has " << per_reg.size() << " entries for "
                                     << num_regs << " registers");
    for (size_t r = 0; r < per_reg.size(); ++r)
      GPURF_CHECK(gpurf::fp::is_table3(per_reg[r]),
                  "precision map entry " << r << " (" << per_reg[r].total_bits
                                         << " bits) is not a Table-3 format");
  }
};

/// Everything a kernel launch needs, plus optional instrumentation:
///  * precision — quantize every f32 register write through its format
///    (models the sliced register file's storage, §3.2.6),
///  * range_check — assert every integer register write stays inside the
///    statically computed range (validates analysis soundness).
struct ExecContext {
  const gpurf::ir::Kernel* kernel = nullptr;
  gpurf::ir::LaunchConfig launch;
  GlobalMemory* gmem = nullptr;
  const std::vector<Texture>* textures = nullptr;
  std::vector<uint32_t> params;

  const PrecisionMap* precision = nullptr;
  const analysis::RangeAnalysisResult* range_check = nullptr;

  /// Optional precomputed kernel analysis (CFG, ipdoms, decoded stream).
  /// When unset, BlockExec fetches one from the process-wide cache; callers
  /// that launch many blocks or probes should set it once up front.
  std::shared_ptr<const KernelAnalysis> analysis;

  /// Execution strategy.  use_soa selects the warp-vectorized SoA data path
  /// (false = the scalar exec_lane reference, kept for asserts/fuzzing);
  /// it is bit-for-bit neutral unconditionally.  block_parallel lets
  /// run_functional shard independent grid blocks across the thread pool
  /// (automatically serial inside pool workers); it reproduces the serial
  /// schedule exactly for kernels whose blocks never *read* gmem written by
  /// another block in the same launch — the CUDA contract (blocks are
  /// unordered; such reads are races on real hardware too).  Since ISSUE 10
  /// this is no longer an unchecked precondition: Workload::run consults
  /// the static memory-access analysis (analysis/memory_access.hpp) and
  /// only keeps block_parallel when the no-cross-block-reads property is
  /// *proven* for the launch (or the workload carries a documented
  /// assume_disjoint waiver); unproven kernels silently take the
  /// bit-identical serial path.  Callers driving ExecContext directly
  /// still own the contract themselves.
  bool use_soa = true;
  bool block_parallel = true;

  /// Skip quantize/range-check/writeback for destination rows whose
  /// register is statically dead at the write point (PR 9) — pure ALU
  /// instructions with a dead destination skip the data path entirely;
  /// memory reads still execute (bounds checks and the StepResult address
  /// trace are observable) but drop the dead writeback.  Architectural
  /// outputs are bit-identical either way; the flag only trades replay
  /// time.  Off by default so the timing simulator's per-instruction
  /// machinery (and the soft-error model's register images) see every
  /// write exactly as before.
  bool elide_dead_writes = false;

  /// Skip the dynamic bounds check (and the addr >= 0 guard) for memory
  /// instructions the static memory-access pass proved in bounds against
  /// this launch (ISSUE 10).  `mem_proven` is a caller-owned per-
  /// flattened-instruction flag array (DecodedInst::flat indexes it; 1 =
  /// every dynamic address of that site is statically inside the target
  /// space).  Bit-identical by construction — a proven check can never
  /// fire.  Off by default: the timing simulator's soft-error model
  /// *relies* on checks firing for flipped address registers (DUE
  /// detection), so only functional replay turns this on
  /// (workloads::RunOptions::elide_bounds_checks).
  bool elide_bounds_checks = false;
  const uint8_t* mem_proven = nullptr;

  // Statistics accumulated during execution.  Under block-parallel runs
  // thread_insts is a per-shard reduction folded in grid order, never a
  // shared counter.
  uint64_t thread_insts = 0;
};

}  // namespace gpurf::exec
