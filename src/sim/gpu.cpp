#include "sim/gpu.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "sim/cache.hpp"
#include "sim/soft_error.hpp"

namespace gpurf::sim {

namespace ir = gpurf::ir;
namespace exec = gpurf::exec;
using ir::Opcode;
using ir::UnitClass;

namespace {

constexpr int kNoIndex = -1;

/// Execution latency by instruction class (predecode only; see SimInst).
uint32_t latency_of(const GpuConfig& g, const ir::Instruction& in) {
  switch (in.op) {
    case Opcode::MUL:
    case Opcode::MAD:
      return in.type == ir::Type::F32 ? g.lat_mul : g.lat_alu;
    case Opcode::SIN: case Opcode::COS: case Opcode::EX2:
    case Opcode::LG2: case Opcode::SQRT: case Opcode::RSQRT:
    case Opcode::RCP: case Opcode::DIV: case Opcode::REM:
      return g.lat_sfu;
    default:
      return g.lat_alu;
  }
}

/// Per-instruction timing facts, predecoded once per launch from the
/// shared decoded stream and indexed by DecodedInst::flat.  One read-only
/// table serves every SM, so the issue, collector and dispatch paths read
/// these instead of re-deriving them from the opcode on every attempt.
struct SimInst {
  /// Scoreboard registers: the register sources, then the guard, then the
  /// destination when has_dst.
  std::array<uint32_t, 5> sb_regs{};
  uint8_t num_sb_regs = 0;
  /// Distinct non-predicate register sources in operand order: the
  /// collector unit's bank fetches.
  std::array<uint32_t, 3> fetch_regs{};
  uint8_t num_fetch_regs = 0;
  bool is_control = false;  ///< DecodedInst::is_control: needs no CU
  bool has_dst = false;
  UnitClass unit = UnitClass::SPU;
  uint32_t dst = 0;
  uint32_t latency = 0;  ///< latency_of(); LDST latency is resolved later
};

std::vector<SimInst> predecode_timing(const GpuConfig& g,
                                      const ir::Kernel& k,
                                      const exec::KernelAnalysis& ka) {
  size_t n = 0;
  for (uint32_t b = 0; b < ka.num_blocks(); ++b) n += ka.block_size(b);
  std::vector<SimInst> table(n);
  for (uint32_t b = 0; b < ka.num_blocks(); ++b)
    for (uint32_t i = 0; i < ka.block_size(b); ++i) {
      const exec::DecodedInst& dec = ka.inst(b, i);
      const ir::Instruction& in = *dec.in;
      SimInst& si = table[dec.flat];
      for (int s = 0; s < in.num_srcs; ++s) {
        if (!in.srcs[s].is_reg()) continue;
        const uint32_t r = in.srcs[s].index;
        si.sb_regs[si.num_sb_regs++] = r;
        if (k.regs[r].type == ir::Type::PRED) continue;
        const auto fetched = si.fetch_regs.begin() + si.num_fetch_regs;
        if (std::find(si.fetch_regs.begin(), fetched, r) == fetched)
          si.fetch_regs[si.num_fetch_regs++] = r;
      }
      if (in.guard != ir::kNoReg) si.sb_regs[si.num_sb_regs++] = in.guard;
      si.is_control = dec.is_control;
      si.has_dst = in.info().has_dst;
      if (si.has_dst) si.sb_regs[si.num_sb_regs++] = in.dst;
      si.unit = in.info().unit;
      si.dst = in.dst;
      si.latency = latency_of(g, in);
    }
  return table;
}

struct FetchReq {
  uint8_t bank = 0;
  bool served = false;
};

/// Bank fetches of one instruction: at most three distinct register
/// sources, each split into at most two pieces.
constexpr int kMaxFetches = 6;

struct CuEntry {
  int warp = kNoIndex;
  const SimInst* si = nullptr;  ///< timing facts of the held instruction
  uint64_t active_from = 0;  ///< fetch requests visible from this cycle
  std::array<FetchReq, kMaxFetches> fetches{};
  uint8_t num_fetches = 0;
  uint8_t unserved = 0;      ///< fetches not yet granted a bank read port
  uint32_t conversions_left = 0;
  /// Last: only dispatch reads it, and its 128-byte lane-address array
  /// would otherwise sit between the fields arbitration scans.
  exec::StepResult step;

  void add_fetch(uint32_t bank) {
    fetches[num_fetches++] = FetchReq{static_cast<uint8_t>(bank), false};
    ++unserved;
  }
  bool fetches_done() const { return unserved == 0; }
};

constexpr uint64_t bit(int i) { return uint64_t(1) << i; }
/// The lowest `n` bits set (n <= 64).
constexpr uint64_t low_bits(uint32_t n) {
  return n >= 64 ? ~uint64_t(0) : bit(int(n)) - 1;
}

/// Calls fn(i) for every set bit i of `mask`, lowest index first.
template <typename Fn>
void for_each_bit(uint64_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) fn(std::countr_zero(mask));
}

struct WriteBack {
  uint64_t cycle;
  int warp;
  uint32_t reg;
  bool operator>(const WriteBack& o) const { return cycle > o.cycle; }
};

struct BlockCtx {
  std::unique_ptr<exec::BlockExec> exec;
  uint32_t warps_live = 0;
  uint32_t barrier_arrived = 0;
};

/// Per-warp-slot state; the active / at-barrier / scoreboard-wait flags
/// and the issue bits of the next instruction live in SmCore's warp masks,
/// indexed by the same slot.
struct WarpCtx {
  int block = kNoIndex;          ///< index into SmCore::blocks_
  uint32_t warp_in_block = 0;
  uint32_t gwarp = 0;            ///< bank-hash id; equals the warps_ index
  /// Timing facts of the instruction the warp executes next (null once
  /// it is done).  Only the warp's own step moves it.
  const SimInst* next = nullptr;
  std::vector<uint8_t> pending;  ///< scoreboard flags per register
};

class BlockDispatcher {
 public:
  explicit BlockDispatcher(const ir::LaunchConfig& lc) : lc_(lc) {}
  bool empty() const { return next_ >= uint64_t(lc_.num_blocks()); }
  std::pair<uint32_t, uint32_t> pop() {
    GPURF_ASSERT(!empty(), "dispatcher empty");
    const uint32_t bx = static_cast<uint32_t>(next_ % lc_.grid_x);
    const uint32_t by = static_cast<uint32_t>(next_ / lc_.grid_x);
    ++next_;
    return {bx, by};
  }

 private:
  const ir::LaunchConfig& lc_;
  uint64_t next_ = 0;
};

/// One LDST dispatch whose L2-dependent latency is resolved in the serial
/// phase: the probe stream (`lines`) replays against the shared L2 in
/// (cycle, SM) order, because both the hit/miss outcome and the cache's
/// tick_-based LRU state depend on global access order.
struct PendingL2 {
  int warp = kNoIndex;        ///< destination warp (kNoIndex: no writeback)
  uint32_t reg = 0;           ///< destination register
  uint64_t issued_at = 0;     ///< dispatch cycle
  uint32_t base_latency = 0;  ///< latency floor (L1 / texture hit path)
  uint32_t extra = 0;         ///< serialisation cycles (transactions - 1)
  size_t line_begin = 0;      ///< range into SmCore::l2_lines_
  size_t line_end = 0;
};

class SmCore {
 public:
  /// Each SM owns a *copy* of the launch's ExecContext so that functional
  /// execution (thread_insts accumulation, analysis handle) never shares
  /// mutable state across SMs during a parallel tick.  Global memory stays
  /// shared: blocks of one launch write disjoint words (see gpu.hpp).
  SmCore(const GpuConfig& g, const CompressionConfig& cc,
         const KernelLaunchSpec& spec, const exec::ExecContext& base_ctx,
         const Occupancy& occ, const SoftErrorModel* soft_model,
         const SimInst* insts)
      : g_(g),
        cc_(cc),
        spec_(spec),
        insts_(insts),
        ctx_(base_ctx),
        soft_model_(soft_model),
        l1_(g.l1),
        tex_(g.tex) {
    ctx_.thread_insts = 0;
    cus_.resize(g.collector_units);
    cu_all_ = low_bits(g.collector_units);
    const uint32_t wpb = spec.launch.warps_per_block();
    warps_.resize(size_t(occ.blocks_per_sm) * wpb);
    for (uint32_t s = 0; s < occ.blocks_per_sm; ++s)
      for (uint32_t w = 0; w < wpb; ++w) {
        WarpCtx& wc = warps_[size_t(s) * wpb + w];
        wc.gwarp = s * wpb + w;
        wc.warp_in_block = w;
        wc.pending.assign(spec.kernel->num_regs(), 0);
      }
    // Scheduler `s` owns the warp slots with gwarp % warp_schedulers == s.
    sched_mask_.fill(0);
    for (size_t w = 0; w < warps_.size(); ++w)
      sched_mask_[w % g.warp_schedulers] |= bit(int(w));
    blocks_.resize(occ.blocks_per_sm);
    greedy_warp_.fill(kNoIndex);
  }

  /// An SM with no resident block still drains its collector units and
  /// writebacks, but cannot free a block slot.
  bool busy() const { return live_blocks_ > 0; }
  uint64_t next_cycle() const { return next_cycle_; }
  /// The last tick (cycle next_cycle() - 1) freed a block slot and the
  /// refill owed for it has not run yet.
  bool has_event() const { return event_; }

  /// Tick from next_cycle() up to `end` (exclusive), touching only
  /// SM-private state; stops early after a tick that frees a block slot.
  /// Returns whether it stopped on such an event.
  bool advance(uint64_t end) {
    while (next_cycle_ < end) {
      if (next_cycle_ < frozen_until_) {
        fast_forward(std::min(end, frozen_until_));
        continue;
      }
      tick(next_cycle_++);
      if (event_) return true;
    }
    return false;
  }

  /// Serial phase only (W = 1 runs, in the flip process's arrival order;
  /// see simulate()): land one sampled strike on this SM and classify it.
  /// Touches only SM-private state plus the warp's functional registers —
  /// which no other SM reads — so the taxonomy and the corrupted payloads
  /// are identical at every shard count.
  void apply_soft_flip(const FlipSite& ev) {
    ++stats_.soft_flips_injected;
    // Static classification first (PR 9): a site none of whose aliased
    // owners is ever live can only resolve to "masked" below, whatever
    // the warp state — counting it here keeps the invariant
    // static_dead <= masked_dead structural rather than sampled.
    if (soft_model_->site_static_dead(ev.phys_reg, ev.slice))
      ++stats_.soft_flips_static_dead;
    const auto masked = [&] { ++stats_.soft_flips_masked_dead; };
    if (ev.warp_slot >= warps_.size()) return masked();
    WarpCtx& wc = warps_[ev.warp_slot];
    if (!(active_ & bit(int(ev.warp_slot))) || wc.block == kNoIndex)
      return masked();
    BlockCtx& blk = blocks_[wc.block];
    if (!blk.exec) return masked();
    exec::WarpState& ws = blk.exec->warp_mut(wc.warp_in_block);
    if (ws.done() || ws.stack().empty()) return masked();
    if (!((ws.valid_mask() >> ev.lane) & 1u)) return masked();
    const exec::StackEntry& pos = ws.stack().back();

    // Resolve the struck site to an architectural register that is live at
    // the warp's current position.  Compressed allocations may alias one
    // site to several registers with disjoint live ranges; at most one of
    // them is live here (interference contract).
    uint32_t victim = SoftErrorModel::kNoReg;
    bool second_piece = false;
    if (cc_.enabled && spec_.allocation) {
      for (const SoftErrorModel::Owner& o :
           soft_model_->owners(ev.phys_reg, ev.slice))
        if (soft_model_->reg_live(pos.blk, pos.inst, o.reg)) {
          victim = o.reg;
          second_piece = o.second_piece;
          break;
        }
    } else if (ev.phys_reg < spec_.kernel->num_regs() &&
               spec_.kernel->regs[ev.phys_reg].type != ir::Type::PRED &&
               soft_model_->reg_live(pos.blk, pos.inst, ev.phys_reg)) {
      victim = ev.phys_reg;  // baseline: full-width storage at its own id
    }
    if (victim == SoftErrorModel::kNoReg) return masked();

    ++stats_.soft_flips_on_live;
    const uint32_t v = ws.reg(victim, ev.lane);
    const uint32_t corrupted =
        soft_model_->corrupt(v, victim, second_piece, ev.slice, ev.bit);
    if (corrupted == v) return;  // absorbed by the narrow storage encoding
    ws.set_reg(victim, ev.lane, corrupted);
    ++stats_.soft_flips_visible;
  }

  /// Serial phase ((cycle, SM) order): replay this SM's L2 probes buffered
  /// at `cycle` against the shared L2 and schedule the writebacks whose
  /// latency depended on the hit/miss outcomes.
  void commit_memory(Cache& l2, uint64_t cycle) {
    for (; committed_ < pending_.size() &&
           pending_[committed_].issued_at <= cycle;
         ++committed_) {
      const PendingL2& p = pending_[committed_];
      uint32_t worst = p.base_latency;
      for (size_t i = p.line_begin; i < p.line_end; ++i)
        worst = std::max(
            worst, l2.access(l2_lines_[i]) ? g_.lat_l2_hit : g_.lat_dram);
      if (p.warp != kNoIndex) {
        const uint64_t wb_extra = cc_.enabled ? cc_.writeback_delay : 0;
        wb_.push(WriteBack{p.issued_at + worst + p.extra + wb_extra, p.warp,
                           p.reg});
        frozen_until_ = 0;  // the new writeback may land inside the freeze
      }
    }
    if (committed_ == pending_.size()) {
      pending_.clear();
      l2_lines_.clear();
      committed_ = 0;
    }
  }

  /// Serial phase (SM-index order): claim blocks from the shared
  /// dispatcher.  Running this between ticks — instead of on-demand inside
  /// tick() — is what makes block placement a pure function of the cycle
  /// number and the SM index.  Settles the owed refill (has_event()).
  void fill_blocks(BlockDispatcher& dispatcher) {
    event_ = false;
    frozen_until_ = 0;
    const uint32_t wpb = warps_per_block();
    for (uint32_t slot = 0;
         live_blocks_ < blocks_.size() && !dispatcher.empty(); ++slot) {
      if (blocks_[slot].exec) continue;
      auto [bx, by] = dispatcher.pop();
      BlockCtx& b = blocks_[slot];
      b.exec = std::make_unique<exec::BlockExec>(ctx_, bx, by);
      b.warps_live = wpb;
      b.barrier_arrived = 0;
      ++live_blocks_;
      ++stats_.blocks_run;
      const uint64_t slot_warps = block_warps(slot);
      active_ |= slot_warps;
      at_barrier_ &= ~slot_warps;
      sb_wait_ &= ~slot_warps;
      for (uint32_t w = 0; w < wpb; ++w) {
        WarpCtx& wc = warps_[size_t(slot) * wpb + w];
        wc.block = static_cast<int>(slot);
        wc.next = next_inst(wc);
        std::fill(wc.pending.begin(), wc.pending.end(), 0);
        refresh_issue_bits(int(slot * wpb + w));
      }
    }
  }

  /// L1 / texture miss-rate bookkeeping is merged into this SM's stats at
  /// the end of the run; simulate() folds per-SM stats in SM-index order.
  void flush_cache_stats() {
    stats_.l1.merge(l1_.stats());
    stats_.tex.merge(tex_.stats());
  }

  const SimStats& stats() const { return stats_; }
  uint64_t thread_insts() const { return ctx_.thread_insts; }

 private:
  uint32_t warps_per_block() const { return spec_.launch.warps_per_block(); }
  uint64_t block_warps(uint32_t slot) const {
    return low_bits(warps_per_block()) << (slot * warps_per_block());
  }

  /// Everything an SM does in one cycle; touches only SM-private state.
  /// L2-bound memory dispatches are buffered (see PendingL2) instead of
  /// probing the shared L2, and block refill happens between ticks
  /// (fill_blocks()).  A tick that changes nothing freezes the SM until
  /// its next timed event (see fast_forward()).
  void tick(uint64_t now) {
    if (soft_model_) accumulate_exposure();
    moved_ = false;
    retire_writebacks(now);
    dispatch_ready(now);
    arbitrate_banks(now);
    run_converters(now);
    issue(now);
    // Soft-error runs tick every cycle for the exposure integral.
    frozen_until_ = moved_ || soft_model_ ? 0 : next_timed_event(now);
  }

  /// The first cycle after `now` at which a tick that changed nothing can
  /// act differently: a writeback retires, a collecting unit's fetches
  /// become visible, or the LD/ST or SFU unit a ready unit waits on frees.
  /// Until then every tick repeats the frozen one: nothing issues, since
  /// the issue bits and warp masks are unchanged, and no unit moves.
  uint64_t next_timed_event(uint64_t now) const {
    uint64_t t = wb_.empty() ? UINT64_MAX : wb_.top().cycle;
    for (int k = 0; k < num_ordered_; ++k) {
      const int c = cu_order_[k];
      const CuEntry& cu = cus_[c];
      if (!(cu_ready_ & bit(c))) {
        // A visible unit that moved nothing waits on a conversion budget
        // of zero, which no cycle changes.
        if (cu.active_from > now) t = std::min(t, cu.active_from);
      } else if (cu.si->unit == UnitClass::LDST) {
        t = std::min(t, ldst_free_);
      } else if (cu.si->unit == UnitClass::SFU) {
        t = std::min(t, sfu_free_);
      } else {
        t = 0;  // SPU-bound units dispatch every cycle: no freeze
      }
    }
    return t;
  }

  /// Skip the ticks before `until` of an SM frozen since its last tick:
  /// each would record the frozen tick's stalls again.  Writebacks that
  /// land before the window end are all in wb_ already (the window bound;
  /// see simulate()), and commit_memory() and fill_blocks() end a freeze.
  void fast_forward(uint64_t until) {
    for (uint32_t s = 0; s < g_.warp_schedulers; ++s)
      *stall_of_[s] += until - next_cycle_;
    next_cycle_ = until;
  }

  /// Live-bit exposure integral (PR 7): per cycle, every resident warp
  /// contributes (live payload bits at its current position) x (valid
  /// lanes).  Purely SM-private, position-driven, flip-independent — the
  /// deterministic cross-section number bench_soft compares.
  void accumulate_exposure() {
    for_each_bit(active_, [&](int w) {
      const WarpCtx& wc = warps_[w];
      if (wc.block == kNoIndex) return;
      const BlockCtx& blk = blocks_[wc.block];
      if (!blk.exec) return;
      const exec::WarpState& ws = blk.exec->warp(wc.warp_in_block);
      if (ws.done() || ws.stack().empty()) return;
      const exec::StackEntry& pos = ws.stack().back();
      const uint64_t lanes = uint64_t(std::popcount(ws.valid_mask()));
      stats_.soft_live_bit_cycles +=
          uint64_t(soft_model_->payload_bits(pos.blk, pos.inst)) * lanes;
      // Static upper bound over the identical warp-cycles: ever-live
      // payload is position-independent, so per row this integral
      // dominates the dynamic one (live_before ⊆ ever_live) — the
      // comparison bench_analysis/bench_soft report.
      stats_.soft_static_live_bit_cycles +=
          uint64_t(soft_model_->static_payload_bits()) * lanes;
    });
  }

  void retire_writebacks(uint64_t now) {
    while (!wb_.empty() && wb_.top().cycle <= now) {
      const WriteBack w = wb_.top();
      wb_.pop();
      warps_[w.warp].pending[w.reg] = 0;
      sb_wait_ &= ~bit(w.warp);
      // Clearing a flag cannot block a scoreboard-clear instruction.
      if (!(sb_clear_ & bit(w.warp))) refresh_issue_bits(w.warp);
      moved_ = true;
    }
  }

  void release_cu(int c) {
    cu_valid_ &= ~bit(c);
    cu_ready_ &= ~bit(c);
  }

  // ------------------------------------------------------------- dispatch
  void dispatch_ready(uint64_t now) {
    spu_used_ = 0;  // both SPUs accept one instruction per cycle
    if (cu_ready_ == 0) return;
    // Dispatch ready collector units oldest first, in allocation order;
    // the units released drop out of cu_order_.
    int kept = 0;
    for (int k = 0; k < num_ordered_; ++k) {
      const int c = cu_order_[k];
      if (!(cu_ready_ & bit(c)) || !dispatch(now, c)) cu_order_[kept++] = c;
    }
    num_ordered_ = kept;
  }

  /// Send ready collector unit `c` to its execution unit and release it;
  /// false when that unit is busy this cycle.
  bool dispatch(uint64_t now, int c) {
    const CuEntry& cu = cus_[c];
    const SimInst& si = *cu.si;
    bool writes_back = si.has_dst;
    uint64_t done_at = 0;
    if (si.unit == UnitClass::LDST) {
      if (now < ldst_free_) return false;
      const MemAccess ma = memory_access(now, cu);
      ldst_free_ = now + ma.transactions;
      // L2-dependent latency: the writeback (if any) is scheduled by
      // commit_memory() in the serial phase, once the buffered L2 probes
      // have resolved hit/miss in (cycle, SM) order.
      if (ma.deferred) writes_back = false;
      done_at = now + ma.latency;
    } else if (si.unit == UnitClass::SFU) {
      if (now < sfu_free_) return false;
      sfu_free_ = now + g_.sfu_initiation;
      done_at = now + si.latency;
    } else {
      if (spu_used_ >= 2) return false;  // two single-precision units
      ++spu_used_;
      done_at = now + si.latency;
    }
    if (writes_back) {
      const uint64_t wb_extra = cc_.enabled ? cc_.writeback_delay : 0;
      wb_.push(WriteBack{done_at + wb_extra, cu.warp, si.dst});
    }
    release_cu(c);
    moved_ = true;
    return true;
  }

  // ------------------------------------------------------- bank arbitration
  void arbitrate_banks(uint64_t now) {
    const uint64_t collecting = cu_valid_ & ~cu_ready_;
    if (collecting == 0) return;
    // One read port per bank: serve the oldest pending request per bank.
    // The walk goes in allocation order, so the first request a bank sees
    // is its oldest, and a CU's later fetch to a bank never displaces its
    // own earlier one.  grant_ is all-empty between ticks: the banks
    // requested this tick are listed in touched_, and only those entries
    // are granted and reset (each grant serves a distinct fetch, so the
    // order they apply in does not matter).
    int ntouched = 0;
    for (int k = 0; k < num_ordered_; ++k) {
      const int c = cu_order_[k];
      const CuEntry& cu = cus_[c];
      if (!(collecting & bit(c)) || cu.active_from > now || cu.fetches_done())
        continue;
      for (int f = 0; f < cu.num_fetches; ++f) {
        if (cu.fetches[f].served) continue;
        BankGrant& g = grant_[cu.fetches[f].bank];
        if (g.cu != kNoIndex) continue;
        touched_[ntouched++] = cu.fetches[f].bank;
        g = BankGrant{c, f};
      }
    }
    for (int t = 0; t < ntouched; ++t) {
      BankGrant& g = grant_[touched_[t]];
      CuEntry& cu = cus_[g.cu];
      cu.fetches[g.fetch].served = true;
      --cu.unserved;
      ++stats_.operand_fetches;
      g = BankGrant{};
    }
    if (ntouched > 0) moved_ = true;
    // Mark CUs whose fetches completed and need no conversion.
    for_each_bit(collecting, [&](int c) {
      const CuEntry& cu = cus_[c];
      if (cu.active_from <= now && cu.fetches_done() &&
          cu.conversions_left == 0) {
        cu_ready_ |= bit(c);
        moved_ = true;
      }
    });
  }

  void run_converters(uint64_t now) {
    if (!cc_.enabled) return;
    uint32_t budget = cc_.conversions_per_cycle;
    for (uint64_t m = cu_valid_ & ~cu_ready_; m != 0 && budget != 0;
         m &= m - 1) {
      CuEntry& cu = cus_[std::countr_zero(m)];
      if (!(cu.active_from <= now && cu.fetches_done() &&
            cu.conversions_left > 0))
        continue;
      const uint32_t take = std::min(budget, cu.conversions_left);
      cu.conversions_left -= take;
      budget -= take;
      stats_.conversions += take;
      moved_ = true;
      // Converted operands become ready next cycle (one-cycle VC latency);
      // leaving the cu_ready_ bit clear until the next arbitrate pass
      // models it.
    }
  }

  // ------------------------------------------------------------------ issue
  void issue(uint64_t now) {
    const uint64_t sb_before = sb_wait_;
    const int nsched = int(g_.warp_schedulers);
    for (int sched = 0; sched < nsched; ++sched) {
      // Lowest-index free collector unit.
      const uint64_t free = ~cu_valid_ & cu_all_;
      const int free_cu = free != 0 ? std::countr_zero(free) : kNoIndex;
      // GTO: greedily retry the last-issued warp first, then oldest
      // (arrival order) among this scheduler's warps that are neither
      // parked at a barrier nor waiting on the scoreboard.  The issue bits
      // pick the warp the walk would reach: one whose next instruction
      // passes the scoreboard and is control flow unless a CU is free.
      int& greedy = greedy_warp_[sched];
      const uint64_t mine = active_ & sched_mask_[sched];
      const uint64_t ready = mine & ~at_barrier_ & ~sb_wait_;
      const uint64_t can = ready & sb_clear_ &
                           (free_cu != kNoIndex ? ~uint64_t(0) : next_ctrl_);
      const uint64_t first = greedy != kNoIndex ? ready & bit(greedy) : 0;
      int w = kNoIndex;
      uint64_t tried = ready;  // the warps the walk tries and fails
      if (first & can) {
        w = greedy;
        tried = 0;
      } else if (can != 0) {
        w = std::countr_zero(can);
        tried = first | (ready & (bit(w) - 1));
      }
      // A tried warp that is not clear failed the scoreboard (an active
      // warp always has a next instruction: only its ret ends it) and
      // waits for its next writeback.
      sb_wait_ |= tried & ~sb_clear_;
      if (w == kNoIndex) {
        // Every candidate was tried, so the masks classify the stall.
        greedy = kNoIndex;
        const bool saw_no_cu =
            free_cu == kNoIndex && (tried & sb_clear_ & ~next_ctrl_) != 0;
        stall_of_[sched] = &stall_counter(mine, saw_no_cu);
        ++*stall_of_[sched];
        continue;
      }

      // Issue: functional execution happens now, straight into the
      // collector unit a non-control instruction is allocated.
      WarpCtx& wc = warps_[w];
      const SimInst& si = *wc.next;
      exec::StepResult control;
      exec::StepResult& step = si.is_control ? control : cus_[free_cu].step;
      blocks_[wc.block].exec->step(wc.warp_in_block, step);
      wc.next = next_inst(wc);
      ++stats_.warp_insts;
      greedy = w;
      if (si.is_control) {
        handle_control(w, step);
        if (!(active_ & ~at_barrier_ & bit(w))) greedy = kNoIndex;
      } else {
        allocate_cu(now, w, free_cu, si);
      }
      refresh_issue_bits(w);
      moved_ = true;
    }
    if (sb_wait_ != sb_before) moved_ = true;
  }

  /// The counter a scheduler owning warps `mine` bumps when it issues
  /// nothing in a cycle.
  uint64_t& stall_counter(uint64_t mine, bool saw_no_cu) {
    if (mine & ~at_barrier_ & sb_wait_) return stats_.stall_scoreboard;
    if (saw_no_cu) return stats_.stall_no_cu;
    if (mine & at_barrier_) return stats_.stall_barrier;
    return stats_.stall_empty;
  }

  /// The SimInst of the instruction warp `wc` executes next (null when
  /// the warp is done).
  const SimInst* next_inst(const WarpCtx& wc) const {
    const exec::DecodedInst* dec =
        blocks_[wc.block].exec->peek_decoded(wc.warp_in_block);
    return dec ? &insts_[dec->flat] : nullptr;
  }

  /// Recompute warp `w`'s issue bits from its next instruction and its
  /// scoreboard.  Only the warp's own step, its block's fill and its
  /// writebacks change either, and each refreshes the bits.
  void refresh_issue_bits(int w) {
    const WarpCtx& wc = warps_[w];
    const uint64_t b = bit(w);
    next_ctrl_ &= ~b;
    sb_clear_ &= ~b;
    if (!wc.next) return;
    if (wc.next->is_control) next_ctrl_ |= b;
    uint8_t pending = 0;
    for (int i = 0; i < wc.next->num_sb_regs; ++i)
      pending |= wc.pending[wc.next->sb_regs[i]];
    if (pending == 0) sb_clear_ |= b;
  }

  void handle_control(int w, const exec::StepResult& step) {
    WarpCtx& wc = warps_[w];
    BlockCtx& blk = blocks_[wc.block];
    if (step.warp_done) {
      active_ &= ~bit(w);
      GPURF_ASSERT(blk.warps_live > 0, "warp count underflow");
      if (--blk.warps_live == 0) {
        blk.exec.reset();  // slot refilled by fill_blocks()
        --live_blocks_;
        event_ = true;
      }
      return;
    }
    if (step.at_barrier) {
      at_barrier_ |= bit(w);
      if (++blk.barrier_arrived == blk.warps_live) {
        blk.barrier_arrived = 0;
        at_barrier_ &= ~block_warps(uint32_t(wc.block));
      }
    }
  }

  /// Allocate free collector unit `cu_slot`, whose `step` the issue already
  /// filled with the instruction `si` describes, to warp `w`.  Fetches
  /// past num_fetches are never read.
  void allocate_cu(uint64_t now, int w, int cu_slot, const SimInst& si) {
    WarpCtx& wc = warps_[w];
    CuEntry& cu = cus_[cu_slot];
    cu_valid_ |= bit(cu_slot);
    cu_order_[num_ordered_++] = uint8_t(cu_slot);
    cu.warp = w;
    cu.si = &si;
    cu.num_fetches = cu.unserved = 0;
    cu.conversions_left = 0;
    cu.active_from =
        now + 1 + (cc_.enabled ? cc_.indirection_read_cycles : 0);

    // Distinct register source operands -> bank fetch requests.
    bool fault_penalty = false;  // >= 1 redirected/spilled source operand
    uint32_t nspill = 0;         // spill-store fetches of this instruction
    for (int i = 0; i < si.num_fetch_regs; ++i) {
      const uint32_t r = si.fetch_regs[i];
      if (cc_.enabled && spec_.allocation) {
        const auto& e = spec_.allocation->table[r];
        GPURF_ASSERT(e.valid, "operand without allocation");
        cu.add_fetch((e.r0.phys_reg + wc.gwarp) % g_.register_banks);
        if (e.split) {
          cu.add_fetch((e.r1.phys_reg + wc.gwarp) % g_.register_banks);
          ++stats_.double_fetches;
        }
        if (e.is_float && e.float_bits != 32 && !e.spilled)
          ++cu.conversions_left;
        if (e.spilled) {
          ++stats_.fault_spill_fetches;
          fault_penalty = true;
          ++nspill;
        } else if (e.redirected) {
          ++stats_.fault_redirected_fetches;
          fault_penalty = true;
        }
      } else {
        cu.add_fetch((r + wc.gwarp) % g_.register_banks);
      }
    }

    // Fault redirection penalty (§RRCD): the extra remap stage delays the
    // collector unit's first fetch, once per affected instruction.
    if (fault_penalty) cu.active_from += cc_.fault_redirection_cycles;

    // Spill-store port contention (PR 7): the uncompressed store has
    // cc_.spill_ports read ports, so an instruction needing more
    // concurrent spill fetches serializes the excess one port-width batch
    // per cycle.
    if (nspill > 0) {
      const uint32_t ports = std::max<uint32_t>(1, cc_.spill_ports);
      const uint32_t extra = (nspill + ports - 1) / ports - 1;
      if (extra > 0) {
        cu.active_from += extra;
        stats_.spill_port_conflicts += extra;
      }
    }

    // Scoreboard: destination pends until writeback.
    if (si.has_dst) wc.pending[si.dst] = 1;
  }

  // ----------------------------------------------------------------- memory
  struct MemAccess {
    uint32_t transactions = 1;
    uint32_t latency = 0;   ///< valid when !deferred
    bool deferred = false;  ///< resolved by commit_memory() later
  };

  /// Classify one memory dispatch.  Shared-memory traffic is entirely
  /// SM-private and resolves immediately; global / texture traffic probes
  /// the private L1 / texture caches now but buffers its L2 stream (the
  /// only cross-SM cache) for the in-order serial-phase replay.
  MemAccess memory_access(uint64_t now, const CuEntry& cu) {
    const ir::Instruction& in = *cu.step.inst;
    const uint32_t mask = cu.step.active_mask;

    if (in.op == Opcode::LD_SHARED || in.op == Opcode::ST_SHARED) {
      // 32 word-interleaved banks; conflict degree = max distinct words
      // mapped to one bank.  Addresses within a span of fewer than 32
      // words fall in distinct banks, so the common unit-stride and
      // broadcast accesses (and an empty mask) have degree 1 without the
      // distinct-word count below.
      uint32_t lo = UINT32_MAX, hi = 0;
      for_each_bit(mask, [&](int l) {
        lo = std::min(lo, cu.step.addr[l]);
        hi = std::max(hi, cu.step.addr[l]);
      });
      if (mask == 0 || hi - lo < 32) return {1, g_.lat_shared, false};
      std::array<uint32_t, 32> words{};
      std::array<uint8_t, 32> per_bank{};
      uint32_t nwords = 0;
      uint32_t degree = 1;
      for (int l = 0; l < 32; ++l) {
        if (!((mask >> l) & 1u)) continue;
        const uint32_t a = cu.step.addr[l];
        if (std::find(words.begin(), words.begin() + nwords, a) !=
            words.begin() + nwords)
          continue;
        words[nwords++] = a;
        degree = std::max<uint32_t>(degree, ++per_bank[a % 32]);
      }
      return {degree, g_.lat_shared + (degree - 1), false};
    }

    PendingL2 p;
    p.issued_at = now;
    p.line_begin = l2_lines_.size();
    if (cu.si->has_dst) {
      p.warp = cu.warp;
      p.reg = cu.si->dst;
    }

    // Coalesce into 128-byte (32-word) lines, in first-touch order;
    // texture lines carry their texture id above the address bits.  A
    // lane on the line appended last (adjacent lanes usually share one)
    // skips the search.
    const bool is_tex = in.op == Opcode::TEX2D;
    const uint64_t space = is_tex ? uint64_t(in.tex) << 40 : 0;
    std::array<uint64_t, 32> lines{};
    uint32_t nlines = 0;
    for_each_bit(mask, [&](int l) {
      const uint64_t line = space | (cu.step.addr[l] / 32);
      if (nlines > 0 && lines[nlines - 1] == line) return;
      if (std::find(lines.begin(), lines.begin() + nlines, line) ==
          lines.begin() + nlines)
        lines[nlines++] = line;
    });
    const bool is_store = in.op == Opcode::ST_GLOBAL;
    for (uint32_t i = 0; i < nlines; ++i) {
      if (is_tex) {
        // Texture miss: L2, then DRAM.  Tag texture space into L2.
        if (!tex_.access(lines[i]))
          l2_lines_.push_back(lines[i] | (uint64_t(1) << 60));
      } else if (is_store || !l1_.access(lines[i])) {
        // Write-evict L1 (Fermi global stores): stores go straight to L2.
        l2_lines_.push_back(lines[i]);
      }
    }
    const uint32_t n = std::max<uint32_t>(1, nlines);
    p.base_latency = is_tex ? g_.lat_tex_hit : g_.lat_l1_hit;
    p.extra = n - 1;
    p.line_end = l2_lines_.size();
    pending_.push_back(p);
    return {n, 0, true};
  }

  const GpuConfig& g_;
  const CompressionConfig& cc_;
  const KernelLaunchSpec& spec_;
  const SimInst* insts_;   ///< the launch's table, by DecodedInst::flat
  exec::ExecContext ctx_;  ///< SM-private copy (thread_insts, analysis)
  const SoftErrorModel* soft_model_;  ///< null = no soft-error tracking

  Cache l1_;
  Cache tex_;
  SimStats stats_;  ///< SM-private; merged in SM-index order at the end

  /// L2 probes buffered by tick() (see PendingL2), in issue order;
  /// entries before committed_ are already replayed.
  std::vector<PendingL2> pending_;
  std::vector<uint64_t> l2_lines_;
  size_t committed_ = 0;

  std::vector<BlockCtx> blocks_;
  uint32_t live_blocks_ = 0;  ///< slots holding a block
  uint64_t next_cycle_ = 0;   ///< the next cycle tick() runs
  bool event_ = false;        ///< see has_event()
  std::vector<WarpCtx> warps_;
  std::vector<CuEntry> cus_;
  /// Bit i = collector unit i holds an instruction / has all operands
  /// (ready is a subset of valid); cu_all_ covers the configured units.
  uint64_t cu_valid_ = 0;
  uint64_t cu_ready_ = 0;
  uint64_t cu_all_ = 0;
  /// The valid collector units in allocation order, which is (age, index)
  /// order: within a tick the schedulers take the lowest free unit from a
  /// shrinking free set, and ages rise across ticks.
  std::array<uint8_t, GpuConfig::kMaxCollectorUnits> cu_order_;
  int num_ordered_ = 0;
  /// Bit w = warp slot w: holds a running warp / is parked at a block
  /// barrier / failed the scoreboard and no writeback of it has retired
  /// since, so it would fail again.
  uint64_t active_ = 0;
  uint64_t at_barrier_ = 0;
  uint64_t sb_wait_ = 0;
  /// Issue bits of warp slot w's next instruction (see
  /// refresh_issue_bits()): it is control flow / its scoreboard registers
  /// are clear.
  uint64_t next_ctrl_ = 0;
  uint64_t sb_clear_ = 0;
  std::array<uint64_t, GpuConfig::kMaxWarpSchedulers> sched_mask_;
  std::priority_queue<WriteBack, std::vector<WriteBack>,
                      std::greater<WriteBack>>
      wb_;
  uint64_t ldst_free_ = 0;
  uint64_t sfu_free_ = 0;
  uint32_t spu_used_ = 0;
  std::array<int, GpuConfig::kMaxWarpSchedulers> greedy_warp_;
  /// The stall counter each scheduler bumped in its last stalled tick.
  std::array<uint64_t*, GpuConfig::kMaxWarpSchedulers> stall_of_{};
  /// Whether the current tick changed any SM state (see tick()).
  bool moved_ = false;
  /// The last tick changed nothing, and every tick before this cycle
  /// would repeat it (see next_timed_event()); 0 when not frozen.
  uint64_t frozen_until_ = 0;

  /// Per-tick scratch, sized by the GpuConfig bounds validate_launch_spec
  /// enforces: the bank-arbitration winner per bank (empty between ticks)
  /// and the banks requested this tick.
  struct BankGrant {
    int cu = kNoIndex;
    int fetch = 0;
  };
  std::array<BankGrant, GpuConfig::kMaxRegisterBanks> grant_;
  std::array<uint8_t, GpuConfig::kMaxRegisterBanks> touched_;
};

}  // namespace

void validate_launch_spec(const GpuConfig& gpu, const CompressionConfig& comp,
                          const KernelLaunchSpec& spec) {
  // The per-SM scheduler, bank and collector-unit state is sized by these
  // bounds, bank ids are stored in 8 bits, and warp slots and collector
  // units are bits of 64-bit masks.
  GPURF_CHECK(gpu.num_sms > 0, "GpuConfig needs at least one SM");
  GPURF_CHECK(gpu.max_warps_per_sm > 0 &&
                  gpu.max_warps_per_sm <= GpuConfig::kMaxWarpsPerSm,
              "max_warps_per_sm " << gpu.max_warps_per_sm << " outside [1, "
                                  << GpuConfig::kMaxWarpsPerSm << "]");
  GPURF_CHECK(gpu.warp_schedulers > 0 &&
                  gpu.warp_schedulers <= GpuConfig::kMaxWarpSchedulers,
              "warp_schedulers " << gpu.warp_schedulers << " outside [1, "
                                 << GpuConfig::kMaxWarpSchedulers << "]");
  GPURF_CHECK(gpu.register_banks > 0 &&
                  gpu.register_banks <= GpuConfig::kMaxRegisterBanks,
              "register_banks " << gpu.register_banks << " outside [1, "
                                << GpuConfig::kMaxRegisterBanks << "]");
  GPURF_CHECK(gpu.collector_units > 0 &&
                  gpu.collector_units <= GpuConfig::kMaxCollectorUnits,
              "collector_units " << gpu.collector_units << " outside [1, "
                                 << GpuConfig::kMaxCollectorUnits << "]");
  GPURF_CHECK(spec.kernel && spec.gmem, "incomplete launch spec");
  if (spec.precision) spec.precision->validate(spec.kernel->num_regs());
  GPURF_CHECK(spec.regs_per_thread > 0, "regs_per_thread must be set");
  // Zero *blocks* is a legal degenerate launch (simulates in zero
  // cycles); a block shape with zero threads is malformed.
  GPURF_CHECK(spec.launch.threads_per_block() > 0,
              "launch '" << spec.kernel->name
                         << "' has an empty block shape");
  // Note: comp.enabled without an allocation is legal — the compressed
  // pipeline overheads (conversion, writeback delay) apply even when every
  // operand still maps 1:1 (sim_test pins this); the allocation only adds
  // indirection-table traffic and split-operand double fetches.
  (void)comp;
}

SimResult simulate(const GpuConfig& gpu, const CompressionConfig& comp,
                   const KernelLaunchSpec& spec,
                   gpurf::common::CancelToken* cancel,
                   const SimOptions& opt) {
  validate_launch_spec(gpu, comp, spec);

  SimResult res;
  res.occupancy = compute_occupancy(gpu, spec.regs_per_thread,
                                    spec.launch.warps_per_block(),
                                    spec.kernel->shared_bytes);
  GPURF_CHECK(res.occupancy.blocks_per_sm > 0,
              "kernel does not fit on the SM (register pressure "
                  << spec.regs_per_thread << ")");

  exec::ExecContext ctx;
  ctx.kernel = spec.kernel;
  ctx.launch = spec.launch;
  ctx.gmem = spec.gmem;
  ctx.textures = spec.textures;
  ctx.params = spec.params;
  ctx.precision = spec.precision;
  ctx.analysis = std::make_shared<const exec::KernelAnalysis>(*spec.kernel);

  BlockDispatcher dispatcher(spec.launch);
  Cache l2(gpu.l2);

  // Soft-error machinery (PR 7): the vulnerability model is built once
  // against the active storage layout; the flip process is owned here and
  // advanced exclusively in the serial phase, so the flip trace is
  // a pure function of (rate, seed) at every shard count.
  std::unique_ptr<SoftErrorModel> soft_model;
  std::optional<SoftErrorProcess> soft_proc;
  if (spec.soft.active()) {
    soft_model = std::make_unique<SoftErrorModel>(
        *spec.kernel, *ctx.analysis, comp.enabled ? spec.allocation : nullptr);
    if (spec.soft.enabled())
      soft_proc.emplace(spec.soft, gpu.num_sms, gpu.max_warps_per_sm);
  }

  const std::vector<SimInst> insts =
      predecode_timing(gpu, *spec.kernel, *ctx.analysis);
  std::vector<std::unique_ptr<SmCore>> sms;
  for (uint32_t s = 0; s < gpu.num_sms; ++s)
    sms.push_back(std::make_unique<SmCore>(gpu, comp, spec, ctx,
                                           res.occupancy, soft_model.get(),
                                           insts.data()));

  // Initial block placement: one fill before cycle 0, in SM-index order —
  // identical for the serial and every sharded schedule.
  for (auto& sm : sms) sm->fill_blocks(dispatcher);

  // Every SM is idle and has ticked exactly the cycles before `next`.
  const auto all_idle_at = [&](uint64_t next) {
    for (const auto& sm : sms)
      if (sm->busy() || sm->next_cycle() != next) return false;
    return true;
  };

  // Shard resolution: <= 0 means "current pool width"; clamp to the SM
  // count and the pool width.  The shards run on the pool's resident
  // workers (ThreadPool::try_parallel_for); a nested call or a pool busy
  // with another fan-out or simulation takes the serial schedule below.
  common::ThreadPool& pool = common::ThreadPool::current();
  int nshards = opt.shards <= 0 ? pool.size() : opt.shards;
  nshards = std::min<int>(nshards, static_cast<int>(gpu.num_sms));
  nshards = std::min<int>(nshards, pool.size());

  // Window schedule, identical in results at every shard count.  A
  // buffered L2 probe lands its writeback at least base_latency >= W =
  // min(lat_l1_hit, lat_tex_hit) cycles after its issue, so replaying the
  // shared L2 once per window of W cycles moves no writeback.  Per window
  // [cycle, horizon):
  //   1. parallel: each shard ticks its busy SMs towards the horizon; an
  //      SM stops after a tick that frees a block slot (an event), and
  //      idle SMs stay where they are, because a refill may wake them;
  //   2. serial (one thread): the events are replayed in cycle order —
  //      every SM is brought to the earliest event cycle m, the SMs whose
  //      event is at m are refilled in SM-index order, and the run may
  //      end at m — until every SM reaches the horizon; then the L2 probes
  //      replay in (cycle, SM) order, followed by the soft flips, the
  //      cancellation checkpoint and the max_cycles check.
  // Serial runs (the reference, in which functional execution keeps its
  // cycle-major SM order) and soft-flip runs (strikes land between
  // cycles) take W = 1.  `stop`, `cycle` and `horizon` are written only
  // in the serial phase and read by the shards after the barrier release
  // (the barrier's epoch ordering publishes them); `err` latches the
  // first exception — shard loops must never unwind past the barrier, or
  // the remaining shards would hang.
  uint64_t window =
      nshards > 1 && !soft_proc
          ? std::max<uint32_t>(1, std::min(gpu.lat_l1_hit, gpu.lat_tex_hit))
          : 1;
  uint64_t cycle = 0;
  uint64_t horizon = 0;
  const auto set_horizon = [&] {
    // Never across a 4096-cycle checkpoint or past max_cycles.
    horizon = std::min({cycle + window, (cycle | 0xFFF) + 1, gpu.max_cycles});
    horizon = std::max(horizon, cycle + 1);
  };
  set_horizon();
  bool stop = dispatcher.empty() && all_idle_at(0);
  std::exception_ptr err;
  std::mutex err_mu;
  const auto record_error = [&] {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!err) err = std::current_exception();
  };

  const auto run_busy = [&](size_t lo, size_t hi) {
    try {
      for (size_t s = lo; s < hi; ++s)
        if (sms[s]->busy()) sms[s]->advance(horizon);
    } catch (...) {
      record_error();
    }
  };

  const auto close_window = [&]() noexcept {
    try {
      if (err) {
        stop = true;
        return;
      }
      const uint64_t start = cycle;
      uint64_t m = 0;
      do {
        m = horizon - 1;
        for (const auto& sm : sms)
          if (sm->has_event()) m = std::min(m, sm->next_cycle() - 1);
        // Busy SMs behind m first: one may hit an earlier event, which
        // becomes m.  A busy SM already past m did not free a slot at m.
        for (auto& sm : sms)
          if (sm->busy() && sm->next_cycle() <= m && sm->advance(m + 1))
            m = sm->next_cycle() - 1;
        for (auto& sm : sms)
          if (!sm->busy() && sm->next_cycle() <= m) sm->advance(m + 1);
        for (auto& sm : sms)
          if (sm->has_event() && sm->next_cycle() == m + 1)
            sm->fill_blocks(dispatcher);
        if (dispatcher.empty() && all_idle_at(m + 1)) {
          stop = true;
          break;
        }
      } while (m + 1 < horizon);
      for (uint64_t c = start; c <= m; ++c)
        for (auto& sm : sms) sm->commit_memory(l2, c);
      // Land this cycle's sampled strikes (W = 1, so m == start), routed
      // to their SM in arrival order (the process emits them
      // sequentially) — serial-phase-only, like every other cross-SM
      // mutation.
      if (soft_proc) {
        FlipSite site;
        while (soft_proc->next_flip(m, &site))
          sms[site.sm]->apply_soft_flip(site);
      }
      cycle = m + 1;
      // Cancellation/deadline checkpoint + progress heartbeat: every 4096
      // cycles keeps the poll off the hot path while bounding the stop
      // latency to one slice (windows never straddle a slice boundary).
      if (cancel && (cycle & 0xFFF) == 0) {
        cancel->sim_cycles.store(cycle, std::memory_order_relaxed);
        cancel->checkpoint();
      }
      if (stop) return;
      GPURF_CHECK(cycle < gpu.max_cycles, "simulation exceeded max_cycles");
      set_horizon();
    } catch (...) {
      record_error();
      stop = true;
    }
  };

  common::CycleBarrier barrier(nshards);
  const auto shard_windows = [&](size_t shard) {
    // Contiguous static SM partition, same formula as parallel_for's
    // shard split: a pure function of (num_sms, nshards, shard).
    const size_t n = sms.size();
    const size_t lo = n * shard / static_cast<size_t>(nshards);
    const size_t hi = n * (shard + 1) / static_cast<size_t>(nshards);
    while (!stop) {
      run_busy(lo, hi);
      barrier.arrive_and_wait(close_window);
    }
  };
  // shard_windows never throws (exceptions latch into `err`), so every
  // shard reaches the end of its loop.  A refused pool runs nothing, and
  // the run takes the serial schedule from cycle 0.
  if (nshards <= 1 || !pool.try_parallel_for(nshards, shard_windows)) {
    window = 1;
    set_horizon();
    while (!stop) {
      run_busy(0, sms.size());
      close_window();
    }
  }
  if (err) std::rethrow_exception(err);

  res.stats.cycles = cycle;
  for (auto& sm : sms) {
    sm->flush_cache_stats();
    res.stats.merge_sm(sm->stats());
    res.stats.thread_insts += sm->thread_insts();
  }
  res.stats.l2 = l2.stats();

  if (spec.soft.active()) {
    res.soft.active = true;
    res.soft.flips_per_mcycle = spec.soft.flips_per_mcycle;
    res.soft.seed = spec.soft.seed;
    res.soft.flips_injected = res.stats.soft_flips_injected;
    res.soft.flips_on_live = res.stats.soft_flips_on_live;
    res.soft.flips_masked_dead = res.stats.soft_flips_masked_dead;
    res.soft.flips_visible = res.stats.soft_flips_visible;
    res.soft.live_bit_cycles = res.stats.soft_live_bit_cycles;
    res.soft.flips_static_dead = res.stats.soft_flips_static_dead;
    res.soft.static_live_bit_cycles = res.stats.soft_static_live_bit_cycles;
  }
  return res;
}

}  // namespace gpurf::sim
