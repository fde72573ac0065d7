#include "analysis/range_analysis.hpp"

#include <algorithm>
#include <map>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/uses.hpp"
#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace gpurf::analysis {

namespace ir = gpurf::ir;
using ir::CmpOp;
using ir::Kernel;
using ir::LaunchConfig;
using ir::Opcode;
using ir::Type;

namespace {

constexpr int kNoNode = -1;

/// A node of the range-constraint graph (one per e-SSA value).
struct RNode {
  enum class Kind : uint8_t { CONST, ARITH, PHI, SIGMA };
  Kind kind = Kind::CONST;

  Opcode op = Opcode::MOV;      // ARITH
  Type ty = Type::S32;          // result type
  Type src_ty = Type::S32;      // CVT source type
  Interval cval;                // CONST payload
  std::vector<int> deps;        // ARITH operands / PHI inputs / SIGMA {src}

  // SIGMA payload: constraint `src REL other` known to hold on this edge.
  CmpOp cmp = CmpOp::EQ;
  bool cmp_holds = true;        // false -> negation of cmp holds
  bool src_is_lhs = true;       // src appears on the left of cmp
  int sigma_other = kNoNode;    // node id of the other operand (future), or
  Interval sigma_other_const;   // a constant bound

  // Whether this node represents a value physically written into the
  // register file (a real definition); only these contribute to the final
  // per-register range.
  bool is_def = false;
  uint32_t origin_reg = ir::kNoReg;

  // Solver state.
  Interval range = Interval::empty();
  int scc = -1;
};

CmpOp negate_cmp(CmpOp c) {
  switch (c) {
    case CmpOp::EQ: return CmpOp::NE;
    case CmpOp::NE: return CmpOp::EQ;
    case CmpOp::LT: return CmpOp::GE;
    case CmpOp::LE: return CmpOp::GT;
    case CmpOp::GT: return CmpOp::LE;
    case CmpOp::GE: return CmpOp::LT;
  }
  return c;
}

CmpOp swap_cmp(CmpOp c) {
  switch (c) {
    case CmpOp::LT: return CmpOp::GT;
    case CmpOp::LE: return CmpOp::GE;
    case CmpOp::GT: return CmpOp::LT;
    case CmpOp::GE: return CmpOp::LE;
    default: return c;
  }
}

/// Interval of values x can take given `x REL other` holds.
Interval bound_for(CmpOp rel, const Interval& other) {
  if (other.is_empty()) return Interval::empty();
  switch (rel) {
    case CmpOp::LT:
      return Interval::make(Interval::kNegInf, sat_add(other.hi, -1));
    case CmpOp::LE:
      return Interval::make(Interval::kNegInf, other.hi);
    case CmpOp::GT:
      return Interval::make(sat_add(other.lo, 1), Interval::kPosInf);
    case CmpOp::GE:
      return Interval::make(other.lo, Interval::kPosInf);
    case CmpOp::EQ:
      return other;
    case CmpOp::NE:
      return Interval::top();
  }
  return Interval::top();
}

Interval type_range(Type t) {
  return t == Type::U32 ? Interval::full_u32() : Interval::full_s32();
}

bool is_mem_op(Opcode op) {
  return op == Opcode::LD_GLOBAL || op == Opcode::LD_SHARED ||
         op == Opcode::ST_GLOBAL || op == Opcode::ST_SHARED;
}

class RangeAnalyzer {
 public:
  RangeAnalyzer(const Kernel& k, const Cfg& cfg, const Dataflow& df,
                const LaunchConfig& lc, const RangeAnalysisOptions& opts)
      : k_(k), lc_(lc), opts_(opts), cfg_(cfg), df_(df) {}

  RangeAnalysisResult run() {
    if (opts_.collect_mem) enumerate_mem_sites();
    build_dom_tree();
    place_phis();
    rename();
    solve();
    return merge();
  }

 private:
  // ---------------------------------------------------------------- helpers
  bool tracked(uint32_t r) const { return ir::is_int(k_.regs[r].type); }

  int new_node(RNode n) {
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size() - 1);
  }

  int const_node(Interval iv, Type ty) {
    RNode n;
    n.kind = RNode::Kind::CONST;
    n.cval = iv;
    n.ty = ty;
    return new_node(std::move(n));
  }

  int undef_node(uint32_t reg) {
    auto it = undef_cache_.find(reg);
    if (it != undef_cache_.end()) return it->second;
    RNode n;
    n.kind = RNode::Kind::CONST;
    n.ty = k_.regs[reg].type;
    n.cval = type_range(n.ty);
    n.origin_reg = reg;
    const int id = new_node(std::move(n));
    undef_cache_[reg] = id;
    return id;
  }

  int special_node(ir::Special s) {
    auto it = special_cache_.find(s);
    if (it != special_cache_.end()) return it->second;
    Interval iv;
    switch (s) {
      case ir::Special::TID_X: iv = Interval::make(0, lc_.block_x - 1); break;
      case ir::Special::TID_Y: iv = Interval::make(0, lc_.block_y - 1); break;
      case ir::Special::CTAID_X:
        iv = opts_.ctaid_x
                 ? iv_intersect(*opts_.ctaid_x, Interval::make(0, lc_.grid_x - 1))
                 : Interval::make(0, lc_.grid_x - 1);
        break;
      case ir::Special::CTAID_Y:
        iv = opts_.ctaid_y
                 ? iv_intersect(*opts_.ctaid_y, Interval::make(0, lc_.grid_y - 1))
                 : Interval::make(0, lc_.grid_y - 1);
        break;
      case ir::Special::NTID_X: iv = Interval::point(lc_.block_x); break;
      case ir::Special::NTID_Y: iv = Interval::point(lc_.block_y); break;
      case ir::Special::NCTAID_X: iv = Interval::point(lc_.grid_x); break;
      case ir::Special::NCTAID_Y: iv = Interval::point(lc_.grid_y); break;
    }
    const int id = const_node(iv, Type::U32);
    special_cache_[s] = id;
    return id;
  }

  int param_node(uint32_t p) {
    auto it = param_cache_.find(p);
    if (it != param_cache_.end()) return it->second;
    const auto& info = k_.params[p];
    Interval iv = info.range
                      ? Interval::make(info.range->lo, info.range->hi)
                      : type_range(info.type);
    // Exact launch values beat the declared contract: the memory pass seeds
    // buffer base addresses (plain s32/u32 params with no useful range)
    // with the words the replay engine will actually pass.
    if (opts_.param_values && p < opts_.param_values->size() &&
        ir::is_int(info.type)) {
      const uint32_t w = (*opts_.param_values)[p];
      iv = info.type == Type::U32
               ? Interval::point(static_cast<int64_t>(w))
               : Interval::point(static_cast<int32_t>(w));
    }
    const int id = const_node(iv, ir::is_int(info.type) ? info.type : Type::S32);
    param_cache_[p] = id;
    return id;
  }

  /// Constraint-graph node for a source operand (int context).
  int operand_node(const ir::Operand& o) {
    switch (o.kind) {
      case ir::Operand::Kind::REG:
        return current_version(o.index);
      case ir::Operand::Kind::IMM_I:
        return const_node(Interval::point(o.imm_i), Type::S32);
      case ir::Operand::Kind::IMM_F:
        GPURF_ASSERT(false, "float immediate in integer context");
        return kNoNode;
      case ir::Operand::Kind::SPECIAL:
        return special_node(static_cast<ir::Special>(o.index));
      case ir::Operand::Kind::PARAM:
        return param_node(o.index);
    }
    return kNoNode;
  }

  int current_version(uint32_t reg) {
    GPURF_ASSERT(tracked(reg), "version query for non-int reg");
    auto& st = stacks_[reg];
    // Use of a never-defined register: conservative full range.
    if (st.empty()) return undef_node(reg);
    return st.back();
  }

  // ----------------------------------------------------------- SSA plumbing
  void build_dom_tree() {
    dom_children_.assign(cfg_.num_blocks(), {});
    for (uint32_t b = 1; b < cfg_.num_blocks(); ++b) {
      if (cfg_.idom[b] != kNoBlock && cfg_.idom[b] != b)
        dom_children_[cfg_.idom[b]].push_back(b);
    }
  }

  void place_phis() {
    const uint32_t nr = k_.num_regs();
    phis_.assign(cfg_.num_blocks(), {});

    for (uint32_t r = 0; r < nr; ++r) {
      if (!tracked(r)) continue;
      // Def blocks of r.
      std::vector<uint32_t> work;
      std::vector<bool> has_def(cfg_.num_blocks(), false);
      for (uint32_t b = 0; b < cfg_.num_blocks(); ++b)
        for (const auto& in : k_.blocks[b].insts)
          if (def_of(in) == r && !has_def[b]) {
            has_def[b] = true;
            work.push_back(b);
          }
      std::vector<bool> has_phi(cfg_.num_blocks(), false);
      while (!work.empty()) {
        const uint32_t b = work.back();
        work.pop_back();
        for (uint32_t j : cfg_.frontiers[b]) {
          if (has_phi[j]) continue;
          if (!df_.live_in[j].test(r)) continue;  // pruned SSA
          has_phi[j] = true;
          // Create the phi node up-front so that predecessors renamed in
          // any dominator-tree order can append their incoming value.
          RNode n;
          n.kind = RNode::Kind::PHI;
          n.ty = k_.regs[r].type;
          n.origin_reg = r;
          phis_[j].push_back(PhiSlot{r, new_node(std::move(n))});
          if (!has_def[j]) {
            has_def[j] = true;
            work.push_back(j);
          }
        }
      }
    }
  }

  struct PhiSlot {
    uint32_t reg;
    int node;
  };

  void rename() {
    stacks_.assign(k_.num_regs(), {});
    rename_block(0);
  }

  void rename_block(uint32_t b) {
    std::vector<uint32_t> pushed;  // regs we pushed here (for pop)

    // 1. Edge sigma: single-predecessor block whose predecessor ends with a
    //    conditional branch gets constraints for the compared registers.
    if (cfg_.preds[b].size() == 1) attach_sigmas(b, cfg_.preds[b][0], pushed);

    // 2. Phi definitions (nodes already created at placement time).
    for (auto& phi : phis_[b]) {
      stacks_[phi.reg].push_back(phi.node);
      pushed.push_back(phi.reg);
    }

    // 3. Straight-line instructions.
    const auto& insts = k_.blocks[b].insts;
    for (uint32_t ii = 0; ii < insts.size(); ++ii) {
      const auto& in = insts[ii];
      if (opts_.collect_mem && is_mem_op(in.op)) record_mem_site(b, ii, in);
      const uint32_t d = def_of(in);
      if (d == ir::kNoReg || !tracked(d)) continue;
      const int computed = translate(in);
      int version = computed;
      if (is_partial_def(in)) {
        // Guarded write: downstream may observe either the new or the old
        // value.
        auto& st = stacks_[d];
        if (!st.empty()) {
          RNode m;
          m.kind = RNode::Kind::PHI;
          m.ty = k_.regs[d].type;
          m.deps = {computed, st.back()};
          m.origin_reg = d;
          version = new_node(std::move(m));
        }
      }
      stacks_[d].push_back(version);
      pushed.push_back(d);
    }

    // 4. Feed phi inputs of CFG successors with the versions live at the
    //    end of this block.
    for (uint32_t s : cfg_.succs[b])
      for (auto& phi : phis_[s])
        nodes_[phi.node].deps.push_back(current_version(phi.reg));

    // 5. Dominator-tree children.
    for (uint32_t c : dom_children_[b]) rename_block(c);

    // 6. Pop.
    for (auto it = pushed.rbegin(); it != pushed.rend(); ++it)
      stacks_[*it].pop_back();
  }

  // ------------------------------------------------------------- mem sites
  void enumerate_mem_sites() {
    for (uint32_t b = 0; b < k_.blocks.size(); ++b) {
      const auto& insts = k_.blocks[b].insts;
      for (uint32_t ii = 0; ii < insts.size(); ++ii) {
        if (!is_mem_op(insts[ii].op)) continue;
        MemSiteRange s;
        s.blk = b;
        s.inst = ii;
        mem_sites_.push_back(s);
        mem_nodes_.push_back(kNoNode);
        site_of_[(uint64_t(b) << 32) | ii] =
            static_cast<int>(mem_sites_.size() - 1);
      }
    }
  }

  /// Bind the reaching version of the address operand (always srcs[0], a
  /// register — the parser enforces that) to this site.  A non-integer
  /// address register stays unbound: the site is reached but its range is
  /// unknown (full u32 after the consumer's wrap rule).
  void record_mem_site(uint32_t b, uint32_t ii, const ir::Instruction& in) {
    const auto it = site_of_.find((uint64_t(b) << 32) | ii);
    GPURF_ASSERT(it != site_of_.end(), "mem site not enumerated");
    mem_sites_[it->second].reached = true;
    const ir::Operand& a = in.srcs[0];
    if (a.is_reg() && tracked(a.index))
      mem_nodes_[it->second] = current_version(a.index);
  }

  void attach_sigmas(uint32_t b, uint32_t p, std::vector<uint32_t>& pushed) {
    const auto& pb = k_.blocks[p];
    if (pb.insts.empty()) return;
    const auto& term = pb.insts.back();
    if (term.op != Opcode::BRA || term.guard == ir::kNoReg) return;
    if (term.target == p + 1) return;  // degenerate: both edges same block
    const bool taken = (term.target == b);
    const bool guard_value = taken ? !term.guard_neg : term.guard_neg;

    // Find the SETP defining the guard within the same block.
    const ir::Instruction* setp = nullptr;
    for (auto it = pb.insts.rbegin(); it != pb.insts.rend(); ++it) {
      if (def_of(*it) == term.guard) {
        if (it->op == Opcode::SETP && it->guard == ir::kNoReg) setp = &*it;
        break;
      }
    }
    if (!setp || !ir::is_int(setp->type)) return;

    for (int side = 0; side < 2; ++side) {
      const ir::Operand& me = setp->srcs[side];
      const ir::Operand& other = setp->srcs[1 - side];
      if (!me.is_reg() || !tracked(me.index)) continue;
      if (stacks_[me.index].empty()) continue;  // undefined: no constraint

      RNode n;
      n.kind = RNode::Kind::SIGMA;
      n.ty = k_.regs[me.index].type;
      n.origin_reg = me.index;
      n.deps = {stacks_[me.index].back()};
      n.cmp = setp->cmp;
      n.cmp_holds = guard_value;
      n.src_is_lhs = (side == 0);
      if (other.is_reg()) {
        if (!tracked(other.index) || stacks_[other.index].empty()) continue;
        n.sigma_other = stacks_[other.index].back();
      } else if (other.kind == ir::Operand::Kind::IMM_I) {
        n.sigma_other = kNoNode;
        n.sigma_other_const = Interval::point(other.imm_i);
      } else if (other.kind == ir::Operand::Kind::PARAM) {
        n.sigma_other = param_node(other.index);
      } else if (other.kind == ir::Operand::Kind::SPECIAL) {
        n.sigma_other = special_node(static_cast<ir::Special>(other.index));
      } else {
        continue;
      }
      // Make the future an ordering dependency so the referenced value's
      // SCC is solved first; a genuine cycle through the future lands both
      // in one SCC, where growth defers the bound (Pereira's futures).
      if (n.sigma_other != kNoNode) n.deps.push_back(n.sigma_other);
      const int id = new_node(std::move(n));
      stacks_[me.index].push_back(id);
      pushed.push_back(me.index);
    }
  }

  /// Build the constraint node for the value computed by `in` (dst is a
  /// tracked integer register).
  int translate(const ir::Instruction& in) {
    const Type ty = in.type;
    switch (in.op) {
      case Opcode::MOV: {
        RNode n;
        n.kind = RNode::Kind::PHI;  // copy == 1-input phi
        n.ty = ty;
        n.deps = {operand_node(in.srcs[0])};
        n.is_def = true;
        n.origin_reg = in.dst;
        return new_node(std::move(n));
      }
      case Opcode::SELP: {
        RNode n;
        n.kind = RNode::Kind::PHI;
        n.ty = ty;
        n.deps = {operand_node(in.srcs[0]), operand_node(in.srcs[1])};
        n.is_def = true;
        n.origin_reg = in.dst;
        return new_node(std::move(n));
      }
      case Opcode::LD_GLOBAL:
      case Opcode::LD_SHARED: {
        // Loads produce statically unknown integers.
        RNode n;
        n.kind = RNode::Kind::CONST;
        n.ty = ty;
        n.cval = type_range(ty);
        n.is_def = true;
        n.origin_reg = in.dst;
        return new_node(std::move(n));
      }
      case Opcode::CVT: {
        RNode n;
        n.ty = ty;
        n.origin_reg = in.dst;
        n.is_def = true;
        if (in.cvt_src_type == Type::F32) {
          n.kind = RNode::Kind::CONST;
          n.cval = type_range(ty);
        } else {
          n.kind = RNode::Kind::ARITH;
          n.op = Opcode::CVT;
          n.src_ty = in.cvt_src_type;
          n.deps = {operand_node(in.srcs[0])};
        }
        return new_node(std::move(n));
      }
      default: {
        RNode n;
        n.kind = RNode::Kind::ARITH;
        n.op = in.op;
        n.ty = ty;
        n.origin_reg = in.dst;
        n.is_def = true;
        for (int i = 0; i < in.num_srcs; ++i)
          n.deps.push_back(operand_node(in.srcs[i]));
        return new_node(std::move(n));
      }
    }
  }

  // ------------------------------------------------------------- evaluation
  Interval eval(const RNode& n, bool apply_sigma) const {
    switch (n.kind) {
      case RNode::Kind::CONST:
        return n.cval;
      case RNode::Kind::PHI: {
        Interval u = Interval::empty();
        for (int d : n.deps) u = iv_union(u, nodes_[d].range);
        return u;
      }
      case RNode::Kind::SIGMA: {
        const Interval src = nodes_[n.deps[0]].range;
        if (src.is_empty()) return src;
        Interval other;
        bool have_other = false;
        if (n.sigma_other == kNoNode) {
          other = n.sigma_other_const;
          have_other = true;
        } else if (apply_sigma ||
                   nodes_[n.sigma_other].scc != n.scc) {
          // Futures inside the same SCC are deferred during growth.
          other = nodes_[n.sigma_other].range;
          have_other = !other.is_empty();
        }
        if (!have_other) return src;
        CmpOp rel = n.cmp_holds ? n.cmp : negate_cmp(n.cmp);
        if (!n.src_is_lhs) rel = swap_cmp(rel);
        return iv_intersect(src, bound_for(rel, other));
      }
      case RNode::Kind::ARITH: {
        std::array<Interval, 3> a{};
        for (size_t i = 0; i < n.deps.size(); ++i) {
          a[i] = nodes_[n.deps[i]].range;
          if (a[i].is_empty()) return Interval::empty();
        }
        switch (n.op) {
          case Opcode::ADD: return iv_add(a[0], a[1]);
          case Opcode::SUB: return iv_sub(a[0], a[1]);
          case Opcode::MUL: return iv_mul(a[0], a[1]);
          case Opcode::MAD: return iv_add(iv_mul(a[0], a[1]), a[2]);
          case Opcode::DIV: return iv_div(a[0], a[1]);
          case Opcode::REM: return iv_rem(a[0], a[1]);
          case Opcode::MIN: return iv_min(a[0], a[1]);
          case Opcode::MAX: return iv_max(a[0], a[1]);
          case Opcode::ABS: return iv_abs(a[0]);
          case Opcode::NEG: return iv_neg(a[0]);
          case Opcode::AND: return iv_and(a[0], a[1]);
          case Opcode::OR: return iv_or(a[0], a[1]);
          case Opcode::XOR: return iv_xor(a[0], a[1]);
          case Opcode::NOT: return iv_not(a[0]);
          case Opcode::SHL: return iv_shl(a[0], a[1]);
          case Opcode::SHR:
            return n.ty == Type::U32 ? iv_shr_u(a[0], a[1])
                                     : iv_shr_s(a[0], a[1]);
          case Opcode::CVT: {
            // Integer-to-integer conversion.
            const Interval& s = a[0];
            if (n.ty == Type::U32)
              return (s.lo >= 0 && s.hi <= int64_t(UINT32_MAX))
                         ? s
                         : Interval::full_u32();
            return (s.lo >= INT32_MIN && s.hi <= INT32_MAX)
                       ? s
                       : Interval::full_s32();
          }
          default:
            return Interval::top();
        }
      }
    }
    return Interval::top();
  }

  // ------------------------------------------------------------------ solve
  void solve() {
    compute_sccs();
    // Process SCCs in dependency order (Tarjan completion order: an SCC is
    // completed only after every SCC it depends on).
    for (const auto& scc : scc_members_) {
      grow(scc);
      narrow(scc);
    }
  }

  void compute_sccs() {
    // Iterative Tarjan over dep edges.
    const int n = static_cast<int>(nodes_.size());
    std::vector<int> index(n, -1), low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<int> stack;
    int next_index = 0;

    struct Frame {
      int v;
      size_t ei;
    };
    for (int root = 0; root < n; ++root) {
      if (index[root] != -1) continue;
      std::vector<Frame> call{{root, 0}};
      index[root] = low[root] = next_index++;
      stack.push_back(root);
      on_stack[root] = true;
      while (!call.empty()) {
        Frame& f = call.back();
        const auto& deps = nodes_[f.v].deps;
        if (f.ei < deps.size()) {
          const int w = deps[f.ei++];
          if (index[w] == -1) {
            index[w] = low[w] = next_index++;
            stack.push_back(w);
            on_stack[w] = true;
            call.push_back({w, 0});
          } else if (on_stack[w]) {
            low[f.v] = std::min(low[f.v], index[w]);
          }
        } else {
          if (low[f.v] == index[f.v]) {
            std::vector<int> comp;
            int w;
            do {
              w = stack.back();
              stack.pop_back();
              on_stack[w] = false;
              nodes_[w].scc = static_cast<int>(scc_members_.size());
              comp.push_back(w);
            } while (w != f.v);
            scc_members_.push_back(std::move(comp));
          }
          const int v = f.v;
          call.pop_back();
          if (!call.empty())
            low[call.back().v] = std::min(low[call.back().v], low[v]);
        }
      }
    }
  }

  void grow(const std::vector<int>& scc) {
    // Phase 1: plain ascending (join) iteration.  Copy/phi cycles (e.g.
    // buffer-swap idioms) reach their exact fixpoint here without ever
    // needing widening.
    bool changed = true;
    int iter = 0;
    const int ascend_limit = 4 + 2 * static_cast<int>(scc.size());
    while (changed && iter++ < ascend_limit) {
      changed = false;
      for (int v : scc) {
        RNode& n = nodes_[v];
        const Interval e = eval(n, /*apply_sigma=*/false);
        if (e.is_empty()) continue;
        const Interval u = iv_union(n.range, e);
        if (!(u == n.range)) {
          n.range = u;
          changed = true;
        }
      }
    }
    if (!changed) return;

    // Phase 2: still growing (a genuine arithmetic loop) — widen the
    // moving bounds to infinity; narrowing recovers precision afterwards.
    changed = true;
    iter = 0;
    while (changed && iter++ < 64) {
      changed = false;
      for (int v : scc) {
        RNode& n = nodes_[v];
        const Interval e = eval(n, /*apply_sigma=*/false);
        if (e.is_empty()) continue;
        if (n.range.is_empty()) {
          n.range = e;
          changed = true;
          continue;
        }
        Interval w = n.range;
        if (e.lo < w.lo) {
          w.lo = Interval::kNegInf;
          changed = true;
        }
        if (e.hi > w.hi) {
          w.hi = Interval::kPosInf;
          changed = true;
        }
        n.range = w;
      }
    }
  }

  void narrow(const std::vector<int>& scc) {
    bool changed = true;
    int iter = 0;
    while (changed && iter++ < 16) {
      changed = false;
      for (int v : scc) {
        RNode& n = nodes_[v];
        const Interval e = eval(n, /*apply_sigma=*/true);
        Interval r = n.range;
        if (e.is_empty()) {
          if (!r.is_empty()) {
            n.range = e;
            changed = true;
          }
          continue;
        }
        if (r.is_empty()) {
          n.range = e;
          changed = true;
          continue;
        }
        if (r.lo_inf() && !e.lo_inf()) {
          r.lo = e.lo;
          changed = true;
        }
        if (r.hi_inf() && !e.hi_inf()) {
          r.hi = e.hi;
          changed = true;
        }
        // Sigma nodes may also *shrink* within the solved bound.
        if (n.kind == RNode::Kind::SIGMA) {
          if (e.lo > r.lo) {
            r.lo = e.lo;
            changed = true;
          }
          if (e.hi < r.hi) {
            r.hi = e.hi;
            changed = true;
          }
        }
        n.range = r;
      }
    }
  }

  // ------------------------------------------------------------------ merge
  RangeAnalysisResult merge() {
    RangeAnalysisResult res;
    res.regs.assign(k_.num_regs(), {});

    for (uint32_t r = 0; r < k_.num_regs(); ++r) {
      auto& out = res.regs[r];
      if (!tracked(r)) {
        out.analyzed = false;
        out.bits = 32;
        continue;
      }
      const Interval machine = type_range(k_.regs[r].type);
      Interval u = Interval::empty();
      for (const auto& n : nodes_) {
        if (n.origin_reg != r || !n.is_def) continue;
        Interval d = n.range;
        // A definition whose mathematical interval escapes the machine
        // type may wrap at run time — the stored value can then be
        // *anything* of that type, so the def must widen to full range
        // (clamping would be unsound).
        if (!d.is_empty() && (d.lo < machine.lo || d.hi > machine.hi))
          d = machine;
        u = iv_union(u, d);
      }
      if (u.is_empty()) u = Interval::point(0);  // dead register
      out.analyzed = true;
      out.range = u;
      out.is_signed = u.lo < 0;
      out.bits = out.is_signed
                     ? bits_for_signed_range(u.lo, u.hi)
                     : bits_for_unsigned_range(static_cast<uint64_t>(u.lo),
                                               static_cast<uint64_t>(u.hi));
      out.bits = std::clamp(out.bits, 1, 32);
    }

    // Per-memory-site address ranges, with the same wrap-escape rule: a
    // solved interval escaping the address register's machine type may wrap
    // at run time, so it must widen to the full type range before use.
    for (size_t i = 0; i < mem_sites_.size(); ++i) {
      MemSiteRange s = mem_sites_[i];
      if (s.reached) {
        const int node = mem_nodes_[i];
        if (node == kNoNode) {
          // Untracked (non-integer) address register: the bits are still a
          // u32, which is all the consumer can assume.
          s.value = Interval::full_u32();
        } else {
          const RNode& n = nodes_[node];
          const Interval machine = type_range(n.ty);
          Interval d = n.range;
          if (d.is_empty() || d.lo < machine.lo || d.hi > machine.hi)
            d = machine;
          s.value = d;
        }
      }
      res.mem.push_back(s);
    }
    return res;
  }

  const Kernel& k_;
  const LaunchConfig& lc_;
  RangeAnalysisOptions opts_;
  const Cfg& cfg_;
  const Dataflow& df_;
  std::vector<std::vector<uint32_t>> dom_children_;
  std::vector<std::vector<PhiSlot>> phis_;
  std::vector<std::vector<int>> stacks_;
  std::vector<RNode> nodes_;
  std::map<ir::Special, int> special_cache_;
  std::map<uint32_t, int> param_cache_;
  std::map<uint32_t, int> undef_cache_;
  std::vector<std::vector<int>> scc_members_;
  std::vector<MemSiteRange> mem_sites_;  ///< block-major, parallel to...
  std::vector<int> mem_nodes_;           ///< ...the bound address node (or kNoNode)
  std::map<uint64_t, int> site_of_;      ///< (blk<<32|inst) -> mem_sites_ index
};

}  // namespace

int RangeAnalysisResult::slices_for_reg(uint32_t r) const {
  return slices_for_bits(regs.at(r).bits);
}

RangeAnalysisResult analyze_ranges(const Kernel& k, const Cfg& cfg,
                                   const Dataflow& df, const LaunchConfig& lc,
                                   const RangeAnalysisOptions& options) {
  return RangeAnalyzer(k, cfg, df, lc, options).run();
}

}  // namespace gpurf::analysis
