#pragma once
// Transient (SEU) soft-error machinery for the timing simulator (PR 7).
//
// Two cooperating pieces:
//
//  * SoftErrorProcess — a deterministic Poisson bit-flip arrival process
//    over the physical register-file geometry.  Inter-arrival gaps are
//    exponential in continuous cycle time, so the expected flip count is
//    rate * cycles and the RNG is consumed O(#flips), not O(#cycles): a
//    zero rate draws no random numbers at all, which is what makes
//    zero-rate runs bit-identical to fault-free references.  The process
//    is owned by simulate() and advanced only in the serial barrier
//    phase, so the flip trace — and everything downstream of it — is
//    identical at every shard count.
//
//  * SoftErrorModel — the static vulnerability map of one launch: which
//    architectural register (if any) owns each (physical register, slice)
//    site under the active allocation, how many payload bits each
//    register occupies, and per-(block, instruction) live-register sets
//    borrowed from the instruction-granular dataflow pass held in the
//    KernelAnalysis (src/analysis/dataflow.*, PR 9) — the same per-point
//    facts the interpreter's dead-write elision and the allocator's
//    live-range packing consume.  It also implements the corruption
//    round-trip: reconstruct the stored (truncated / encoded) payload of
//    the victim register, flip the struck bit, and decompress back
//    through the Value Extractor / Value Converter into the architectural
//    32-bit value — narrow-float decoding can absorb a flip, which is one
//    of the masking effects the AVF report quantifies.
//
// The flip site space is fixed — independent of the launch's allocation —
// so baseline and compressed runs at equal rates see identically
// distributed strikes and differ only in how many of them land on live
// bits: (SM, warp slot in [0, max_warps_per_sm), physical register in
// [0, kSoftPhysRegSpace), slice in [0, 8), lane in [0, 32), bit in
// [0, 4)).

#include <cstdint>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "common/bitset.hpp"
#include "common/rng.hpp"
#include "exec/kernel_analysis.hpp"
#include "sim/gpu.hpp"

namespace gpurf::sim {

/// Flip site space: matches the permanent rf::FaultMap geometry (16 banks
/// x 16 rows of 8-slice registers per warp context).
inline constexpr uint32_t kSoftPhysRegSpace = 256;
inline constexpr uint32_t kSoftSlicesPerReg = 8;
inline constexpr uint32_t kSoftBitsPerSlice = 4;

/// One sampled strike.
struct FlipSite {
  uint32_t sm = 0;
  uint32_t warp_slot = 0;  ///< in [0, max_warps_per_sm)
  uint32_t phys_reg = 0;   ///< in [0, kSoftPhysRegSpace)
  uint32_t slice = 0;      ///< in [0, kSoftSlicesPerReg)
  uint32_t lane = 0;       ///< in [0, 32)
  uint32_t bit = 0;        ///< in [0, kSoftBitsPerSlice)
};

class SoftErrorProcess {
 public:
  SoftErrorProcess(const SoftErrorSpec& spec, uint32_t num_sms,
                   uint32_t warp_slots_per_sm);

  /// True (filling *out) when the next strike lands on `cycle`; call in a
  /// loop until false — multiple strikes per cycle are possible at high
  /// rates.  Must be called with non-decreasing cycle numbers.
  bool next_flip(uint64_t cycle, FlipSite* out);

 private:
  void advance();

  gpurf::Pcg32 rng_;
  double rate_per_cycle_ = 0.0;
  double next_time_ = 0.0;
  uint32_t num_sms_ = 1;
  uint32_t warp_slots_ = 1;
};

class SoftErrorModel {
 public:
  static constexpr uint32_t kNoReg = ~0u;

  /// `allocation` selects the storage model: nullptr = baseline (every
  /// non-predicate architectural register stored full-width at its own
  /// id), else the compressed slice packing (aliasing allowed: registers
  /// with disjoint live ranges may own the same site — at most one is
  /// live at any program point, by the interference contract).
  SoftErrorModel(const gpurf::ir::Kernel& k,
                 const gpurf::exec::KernelAnalysis& ka,
                 const gpurf::alloc::AllocationResult* allocation);

  /// Architectural registers owning site (phys_reg, slice); empty = the
  /// site holds no allocated payload (strike is masked as dead).
  struct Owner {
    uint32_t reg = kNoReg;
    bool second_piece = false;  ///< site belongs to the split's r1 piece
  };
  const std::vector<Owner>& owners(uint32_t phys_reg, uint32_t slice) const;

  /// Is `reg` architecturally live when a warp stands at (blk, inst)?
  /// `inst == block size` means "past the last instruction" (live-out).
  bool reg_live(uint32_t blk, uint32_t inst, uint32_t reg) const;

  /// Live payload bits (one lane) at a warp position — the deterministic
  /// exposure integrand: sum over live registers of their stored width
  /// (32 baseline, 4 * allocated slices compressed).
  uint32_t payload_bits(uint32_t blk, uint32_t inst) const;

  /// Static classification (PR 9): the site holds no payload that is live
  /// at *any* program point — every strike there is masked regardless of
  /// where the warp stands, so soft_flips_static_dead is a lower bound of
  /// soft_flips_masked_dead by construction.
  bool site_static_dead(uint32_t phys_reg, uint32_t slice) const;

  /// Position-independent upper bound of payload_bits(): the sum of the
  /// stored widths of every ever-live register.  Integrated alongside the
  /// dynamic exposure it yields the static live-bit integral, >= the
  /// dynamic one per warp-cycle by live_before ⊆ ever_live.
  uint32_t static_payload_bits() const { return static_bits_; }

  /// Corrupt one stored bit of the victim register and return the
  /// post-decompression architectural value.  `value` is the current
  /// architectural 32-bit value; equality of the result means the strike
  /// was numerically masked by the storage encoding.
  uint32_t corrupt(uint32_t value, uint32_t reg, bool second_piece,
                   uint32_t slice, uint32_t bit) const;

 private:
  const gpurf::ir::Kernel* k_;
  const gpurf::alloc::AllocationResult* alloc_;  ///< nullptr = baseline
  /// Instruction-granular liveness, borrowed from the KernelAnalysis the
  /// launch already carries (PR 9) — the model no longer recomputes the
  /// per-point scan itself.  The analysis outlives the model (simulate()
  /// holds the shared_ptr for the whole run).
  const gpurf::analysis::Dataflow* df_;
  /// (phys_reg * 8 + slice) -> owning registers; baseline mode leaves this
  /// empty and resolves ownership by identity.
  std::vector<std::vector<Owner>> owners_;
  std::vector<Owner> no_owner_;
  std::vector<uint32_t> reg_bits_;  ///< stored payload width per arch reg
  /// Per-point payload-bit sums over the dataflow's point layout
  /// (allocation-dependent, so computed here rather than in the analysis).
  std::vector<uint32_t> bits_at_;
  uint32_t static_bits_ = 0;  ///< sum of widths over ever-live registers
};

}  // namespace gpurf::sim
