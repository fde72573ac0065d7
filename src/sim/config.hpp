#pragma once
// GPU configuration (paper Table 2: Fermi GTX 480) and the compressed
// register-file pipeline parameters (§3.2.7/§3.2.8).

#include <cstdint>

namespace gpurf::sim {

struct CacheGeom {
  uint32_t size_bytes = 16 * 1024;
  uint32_t line_bytes = 128;
  uint32_t assoc = 4;

  uint32_t num_sets() const { return size_bytes / (line_bytes * assoc); }
};

struct GpuConfig {
  // Table 2, per GPU.
  uint32_t clock_mhz = 1400;
  uint32_t num_sms = 15;
  CacheGeom l2{768 * 1024, 128, 16};

  // Table 2, per SM.
  uint32_t warp_schedulers = 2;
  uint32_t max_warps_per_sm = 48;
  uint32_t max_blocks_per_sm = 8;
  uint32_t registers_per_sm = 32768;
  uint32_t register_banks = 16;
  uint32_t collector_units = 16;
  uint32_t shared_mem_bytes = 48 * 1024;
  CacheGeom l1{16 * 1024, 128, 4};
  CacheGeom tex{12 * 1024, 128, 4};

  // Execution latencies (cycles).  Dependent-issue latencies on Fermi are
  // ~18 cycles for arithmetic (Wong et al. microbenchmarks; GPGPU-Sim
  // models similar pipeline depths); memory magnitudes follow the
  // GPGPU-Sim GTX 480 configuration.
  uint32_t lat_alu = 14;       ///< simple int/fp ALU op
  uint32_t lat_mul = 18;       ///< mul / mad
  uint32_t lat_sfu = 36;       ///< transcendental / div / rem
  uint32_t sfu_initiation = 4; ///< SFU accepts one warp inst / 4 cycles
  uint32_t lat_shared = 36;
  uint32_t lat_l1_hit = 60;
  uint32_t lat_l2_hit = 180;
  uint32_t lat_dram = 360;
  uint32_t lat_tex_hit = 80;

  /// Safety bound for runaway simulations.
  uint64_t max_cycles = 80'000'000;

  /// Upper bounds sim::validate_launch_spec enforces on the fields above
  /// (the simulator sizes its per-SM scratch statically).
  static constexpr uint32_t kMaxWarpSchedulers = 8;
  static constexpr uint32_t kMaxRegisterBanks = 256;
  static constexpr uint32_t kMaxCollectorUnits = 64;
  static constexpr uint32_t kMaxWarpsPerSm = 64;

  static GpuConfig fermi_gtx480() { return GpuConfig{}; }
};

/// Knobs of the proposed register-file organisation.  Inactive (enabled ==
/// false) reproduces the unmodified baseline pipeline.
struct CompressionConfig {
  bool enabled = false;

  /// Extra operand-collector depth for the source indirection-table read
  /// (§3.2.7: one added pipeline stage on the read path).
  uint32_t indirection_read_cycles = 1;

  /// Value Converter throughput (§3.2.5) and latency (one cycle, §3.2.8).
  uint32_t conversions_per_cycle = 6;

  /// Added writeback delay: low-precision conversion + destination-table
  /// access + pessimistic bank-conflict allowance (§3.2.8 models three
  /// cycles for all operands; §6.3 sweeps {0,2,4,8}).
  uint32_t writeback_delay = 3;

  /// Extra collector-unit latency when an instruction touches a register
  /// that was steered around permanent faults (RRCD-style redirection) or
  /// lives in the uncompressed spill store.  Charged once per instruction
  /// with at least one such source operand; zero-fault allocations never
  /// pay it.
  uint32_t fault_redirection_cycles = 1;

  /// Read ports on the uncompressed spill store (PR 7).  An instruction
  /// whose sources need more concurrent spill fetches than this serializes
  /// the excess, one extra cycle per additional port-width batch, counted
  /// in SimStats::spill_port_conflicts.  Values < 1 behave as 1.
  uint32_t spill_ports = 1;

  static CompressionConfig baseline() { return CompressionConfig{}; }
  static CompressionConfig paper_default() {
    CompressionConfig c;
    c.enabled = true;
    return c;
  }
  static CompressionConfig with_writeback_delay(uint32_t wb) {
    CompressionConfig c;
    c.enabled = true;
    c.writeback_delay = wb;
    return c;
  }
};

}  // namespace gpurf::sim
