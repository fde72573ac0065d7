#include "api/json.hpp"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gpurf::api {

namespace {

std::string fmt_double(double v) {
  // Shortest round-trippable-enough form; NaN/inf are not valid JSON, so
  // they serialise as null.  std::to_chars formats like printf %g *in the
  // C locale* regardless of the process locale — snprintf would emit a
  // comma decimal separator under e.g. de_DE, which is not valid JSON
  // (ISSUE 5 locale fix, the emitting twin of the parse_json change).
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 9);
  return std::string(buf, r.ptr);
}

}  // namespace

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

void JsonWriter::key(const std::string& k) {
  comma();
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
  need_comma_ = false;
}

void JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
}

void JsonWriter::begin_array(const std::string& k) {
  key(k);
  out_ += '[';
  need_comma_ = false;
}

void JsonWriter::begin_object(const std::string& k) {
  key(k);
  out_ += '{';
  need_comma_ = false;
}

void JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
}

void JsonWriter::field(const std::string& k, const std::string& v) {
  key(k);
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
  need_comma_ = true;
}

void JsonWriter::field(const std::string& k, const char* v) {
  field(k, std::string(v));
}

void JsonWriter::field(const std::string& k, double v) {
  key(k);
  out_ += fmt_double(v);
  need_comma_ = true;
}

void JsonWriter::field(const std::string& k, uint64_t v) {
  key(k);
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::field(const std::string& k, int64_t v) {
  key(k);
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::field(const std::string& k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
  need_comma_ = true;
}

void JsonWriter::raw(const std::string& k, const std::string& json) {
  key(k);
  out_ += json;
  need_comma_ = true;
}

void JsonWriter::element(double v) {
  comma();
  out_ += fmt_double(v);
  need_comma_ = true;
}

void JsonWriter::element(uint64_t v) {
  comma();
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::element(const std::string& v) {
  comma();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
  need_comma_ = true;
}

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void write_tune(JsonWriter& w, const std::string& k,
                const tuning::TuneResult& t) {
  w.begin_object(k);
  w.field("evaluations", t.evaluations);
  w.field("f32_regs", t.f32_regs);
  w.field("slices_before", t.slices_before);
  w.field("slices_after", t.slices_after);
  w.field("final_score", t.final_score);
  w.begin_array("per_reg_bits");
  for (const auto& f : t.pmap.per_reg) w.element(uint64_t(f.total_bits));
  w.end_array();
  w.end_object();
}

void write_alloc(JsonWriter& w, const std::string& k,
                 const alloc::AllocationResult& a) {
  w.begin_object(k);
  w.field("num_physical_regs", a.num_physical_regs);
  w.field("total_slices", a.total_slices);
  w.field("split_operands", a.split_operands);
  w.field("packing_density", a.packing_density());
  w.field("registers_redirected", a.registers_redirected);
  w.field("registers_spilled", a.registers_spilled);
  w.field("spill_regs", a.spill_regs);
  w.field("fault_coverage_pct", a.fault_coverage_pct());
  w.end_object();
}

void write_cache(JsonWriter& w, const std::string& k, const sim::CacheStats& c) {
  w.begin_object(k);
  w.field("accesses", c.accesses);
  w.field("misses", c.misses);
  w.field("miss_rate", c.miss_rate());
  w.end_object();
}

const char* limiter_name(sim::Occupancy::Limiter l) {
  switch (l) {
    case sim::Occupancy::Limiter::kRegisters: return "registers";
    case sim::Occupancy::Limiter::kSharedMem: return "shared_mem";
    case sim::Occupancy::Limiter::kWarps: return "warps";
    case sim::Occupancy::Limiter::kBlocks: return "blocks";
    case sim::Occupancy::Limiter::kNone: return "none";
  }
  return "none";
}

void write_stats_fields(JsonWriter& w, const sim::SimStats& s) {
  w.field("cycles", s.cycles);
  w.field("thread_insts", s.thread_insts);
  w.field("warp_insts", s.warp_insts);
  w.field("blocks_run", s.blocks_run);
  w.field("ipc", s.ipc());
  write_cache(w, "l1", s.l1);
  write_cache(w, "tex", s.tex);
  write_cache(w, "l2", s.l2);
  w.begin_object("stalls");
  w.field("scoreboard", s.stall_scoreboard);
  w.field("no_cu", s.stall_no_cu);
  w.field("barrier", s.stall_barrier);
  w.field("empty", s.stall_empty);
  w.end_object();
  w.field("operand_fetches", s.operand_fetches);
  w.field("double_fetches", s.double_fetches);
  w.field("conversions", s.conversions);
  w.field("fault_redirected_fetches", s.fault_redirected_fetches);
  w.field("fault_spill_fetches", s.fault_spill_fetches);
  w.field("spill_port_conflicts", s.spill_port_conflicts);
  w.field("soft_flips_injected", s.soft_flips_injected);
  w.field("soft_flips_on_live", s.soft_flips_on_live);
  w.field("soft_flips_masked_dead", s.soft_flips_masked_dead);
  w.field("soft_flips_visible", s.soft_flips_visible);
  w.field("soft_live_bit_cycles", s.soft_live_bit_cycles);
  w.field("soft_flips_static_dead", s.soft_flips_static_dead);
  w.field("soft_static_live_bit_cycles", s.soft_static_live_bit_cycles);
}

void write_fault_report(JsonWriter& w, const std::string& k,
                        const sim::FaultInjectionReport& f) {
  w.begin_object(k);
  w.field("active", f.active);
  w.field("seed", f.seed);
  w.field("density", f.density);
  w.field("faults_total", f.faults_total);
  w.field("faults_in_footprint", f.faults_in_footprint);
  w.field("registers_redirected", f.registers_redirected);
  w.field("registers_spilled", f.registers_spilled);
  w.field("spill_regs", f.spill_regs);
  w.field("coverage_pct", f.coverage_pct);
  // Fixed wire keys: existing readers and the benchmark references expect them.
  w.field("retuned", false);
  w.field("retune_slice_budget", uint64_t{0});
  w.field("spills_before_retune", uint64_t{0});
  w.field("quality_scored", f.quality_scored);
  if (f.quality_scored) {
    w.field("quality_fault_free", f.quality_fault_free);
    w.field("quality_faulty", f.quality_faulty);
    w.field("quality_delta", f.quality_delta);
  }
  w.end_object();
}

void write_soft_report(JsonWriter& w, const std::string& k,
                       const sim::SoftErrorReport& s) {
  w.begin_object(k);
  w.field("active", s.active);
  w.field("flips_per_mcycle", s.flips_per_mcycle);
  w.field("seed", s.seed);
  w.field("flips_injected", s.flips_injected);
  w.field("flips_on_live", s.flips_on_live);
  w.field("flips_masked_dead", s.flips_masked_dead);
  w.field("flips_visible", s.flips_visible);
  w.field("live_bit_cycles", s.live_bit_cycles);
  w.field("flips_static_dead", s.flips_static_dead);
  w.field("static_live_bit_cycles", s.static_live_bit_cycles);
  w.field("avf", s.avf());
  w.field("quality_scored", s.quality_scored);
  if (s.quality_scored) {
    w.field("quality_fault_free", s.quality_fault_free);
    w.field("quality_faulty", s.quality_faulty);
    w.field("quality_delta", s.quality_delta);
  }
  w.end_object();
}

}  // namespace

std::string to_json(const workloads::PipelineResult& pr) {
  JsonWriter w;
  w.begin_object();
  w.begin_object("pressure");
  w.field("original", pr.pressure.original);
  w.field("narrow_int", pr.pressure.narrow_int);
  w.field("narrow_float_perfect", pr.pressure.narrow_float_perfect);
  w.field("narrow_float_high", pr.pressure.narrow_float_high);
  w.field("both_perfect", pr.pressure.both_perfect);
  w.field("both_high", pr.pressure.both_high);
  w.end_object();
  write_tune(w, "tune_perfect", pr.tune_perfect);
  write_tune(w, "tune_high", pr.tune_high);
  write_alloc(w, "alloc_both_perfect", pr.alloc_both_perfect);
  write_alloc(w, "alloc_both_high", pr.alloc_both_high);
  w.end_object();
  return w.str();
}

std::string to_json(const sim::SimStats& s) {
  JsonWriter w;
  w.begin_object();
  write_stats_fields(w, s);
  w.end_object();
  return w.str();
}

std::string to_json(const sim::SimResult& r) {
  JsonWriter w;
  w.begin_object();
  w.begin_object("occupancy");
  w.field("blocks_per_sm", r.occupancy.blocks_per_sm);
  w.field("warps_per_sm", r.occupancy.warps_per_sm);
  w.field("percent", r.occupancy.percent);
  w.field("limiter", limiter_name(r.occupancy.limiter));
  w.end_object();
  w.begin_object("stats");
  write_stats_fields(w, r.stats);
  w.end_object();
  write_fault_report(w, "fault", r.fault);
  write_soft_report(w, "soft", r.soft);
  w.end_object();
  return w.str();
}

std::string to_json(const FaultCampaignResult& r) {
  JsonWriter w;
  w.begin_object();
  w.field("workload", r.workload);
  // Fixed wire key: existing readers and the benchmark references expect it.
  w.field("truncated", false);
  w.begin_array("points");
  for (const auto& pt : r.points) {
    w.begin_object();
    w.field("density", pt.density);
    w.field("seed", pt.seed);
    w.field("state", job_state_name(pt.state));
    if (!pt.error.empty()) w.field("error", pt.error);
    w.field("cycles", pt.cycles);
    w.field("ipc", pt.ipc);
    write_fault_report(w, "fault", pt.fault);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string to_json(const TransientCampaignResult& r) {
  JsonWriter w;
  w.begin_object();
  w.field("workload", r.workload);
  w.begin_array("points");
  for (const auto& pt : r.points) {
    w.begin_object();
    w.field("flips_per_mcycle", pt.flips_per_mcycle);
    w.field("seed", pt.seed);
    w.field("state", job_state_name(pt.state));
    if (!pt.error.empty()) w.field("error", pt.error);
    w.field("cycles", pt.cycles);
    w.field("ipc", pt.ipc);
    write_soft_report(w, "soft", pt.soft);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

namespace {

void write_hist_fields(JsonWriter& w, const HistogramSnapshot& h, bool full) {
  w.field("count", h.count);
  w.field("sum_us", h.sum_us);
  w.field("mean_us", h.mean_us());
  w.field("p50_us", h.percentile_us(0.50));
  w.field("p99_us", h.percentile_us(0.99));
  w.field("p999_us", h.percentile_us(0.999));
  if (full) {
    w.begin_array("buckets");
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (h.buckets[static_cast<size_t>(b)] == 0) continue;
      w.begin_object();
      // The open-ended last bucket's inclusive bound is UINT64_MAX; emit
      // -1 instead so readers see a sentinel rather than a 20-digit bound.
      if (b >= HistogramSnapshot::kBuckets - 1)
        w.field("le_us", int64_t{-1});
      else
        w.field("le_us", HistogramSnapshot::bucket_le_us(b));
      w.field("count", h.buckets[static_cast<size_t>(b)]);
      w.end_object();
    }
    w.end_array();
  }
}

}  // namespace

std::string to_json(const HistogramSnapshot& h, bool full) {
  JsonWriter w;
  w.begin_object();
  write_hist_fields(w, h, full);
  w.end_object();
  return w.str();
}

std::string to_json(const MetricsSnapshot& m) {
  JsonWriter w;
  w.begin_object();
  w.field("pipeline_memo_hits", m.pipeline_memo_hits);
  w.field("pipeline_memo_misses", m.pipeline_memo_misses);
  w.field("disk_cache_hits", m.disk_cache_hits);
  w.field("disk_cache_stale_rejections", m.disk_cache_stale_rejections);
  w.field("disk_cache_write_failures", m.disk_cache_write_failures);
  w.field("disk_cache_disabled", m.disk_cache_disabled != 0);
  w.field("tuner_candidates", m.tuner_candidates);
  w.field("tuner_candidates_doomed", m.tuner_candidates_doomed);
  w.field("queue_depth", m.queue_depth);
  w.field("jobs_running", m.jobs_running);
  w.field("inflight", m.inflight);
  w.field("jobs_submitted", m.jobs_submitted);
  w.field("jobs_done", m.jobs_done);
  w.field("jobs_failed", m.jobs_failed);
  w.field("jobs_cancelled", m.jobs_cancelled);
  w.field("jobs_deadline_exceeded", m.jobs_deadline_exceeded);
  w.field("job_wall_ms_total", static_cast<double>(m.job_wall_us_total) / 1000.0);
  w.begin_object("latency");
  w.begin_object("queue_wait");
  write_hist_fields(w, m.queue_wait, false);
  w.end_object();
  w.begin_object("tune");
  write_hist_fields(w, m.tune, false);
  w.end_object();
  w.begin_object("sim");
  write_hist_fields(w, m.sim, false);
  w.end_object();
  w.begin_object("serialize");
  write_hist_fields(w, m.serialize, false);
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str();
}

std::string to_json(const analysis::KernelReport& r) {
  JsonWriter w;
  w.begin_object();
  w.field("kernel", r.kernel);
  w.field("num_regs", r.num_regs);
  w.field("num_blocks", r.num_blocks);
  w.field("num_insts", r.num_insts);
  w.field("static_pressure", r.static_pressure);
  w.field("alloc_pressure", r.alloc_pressure);
  w.field("live_interval_pressure", r.live_interval_pressure);
  w.field("clean", r.clean());
  w.begin_array("reg_names");
  for (const auto& n : r.reg_names) w.element(n);
  w.end_array();
  w.begin_array("undefined_reads");
  for (uint32_t reg : r.undefined_reads) w.element(uint64_t(reg));
  w.end_array();
  w.begin_array("dead_writes");
  for (const auto& d : r.dead_writes) {
    w.begin_object();
    w.field("blk", d.blk);
    w.field("inst", d.inst);
    w.field("reg", d.reg);
    w.end_object();
  }
  w.end_array();
  w.begin_array("never_read");
  for (uint32_t reg : r.never_read) w.element(uint64_t(reg));
  w.end_array();
  w.begin_array("intervals");
  for (const auto& iv : r.intervals) {
    w.begin_object();
    w.field("reg", iv.reg);
    w.field("begin", iv.begin);
    w.field("end", iv.end);
    w.end_object();
  }
  w.end_array();
  w.field("mem_analyzed", r.mem_analyzed);
  if (r.mem_analyzed) {
    w.field("gmem_words", r.gmem_words);
    w.field("mem_insts", r.mem_insts);
    w.field("mem_proven", r.mem_proven);
    const auto write_oob = [&](const char* key,
                               const std::vector<analysis::OobFinding>& fs) {
      w.begin_array(key);
      for (const auto& f : fs) {
        w.begin_object();
        w.field("blk", f.blk);
        w.field("inst", f.inst);
        w.field("store", f.is_store);
        w.field("shared", f.shared);
        w.field("definite", f.definite);
        w.field("addr_known", f.addr_known);
        if (f.addr_known) {
          w.field("lo", f.lo);
          w.field("hi", f.hi);
        }
        w.end_object();
      }
      w.end_array();
    };
    write_oob("oob_errors", r.oob_errors);
    write_oob("oob_warnings", r.oob_warnings);
    w.field("footprints_computed", r.footprints_computed);
    w.field("stores_disjoint", r.stores_disjoint);
    w.field("loads_local", r.loads_local);
    w.field("disjoint_waived", r.disjoint_waived);
    w.field("store_affine", r.store_affine);
    w.field("load_affine", r.load_affine);
  }
  w.end_object();
  return w.str();
}

// ------------------------------------------------------------ JSON parsing

namespace {

/// Recursive-descent parser over the RFC 8259 value grammar.  Errors
/// record the byte offset; depth is bounded so hostile input cannot blow
/// the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> parse() {
    JsonValue v;
    if (!value(v, 0)) return error();
    skip_ws();
    if (pos_ != text_.size()) {
      err_ = "trailing characters";
      return error();
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status error() const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + err_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      err_ = "nesting too deep";
      return false;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      err_ = "unexpected end of input";
      return false;
    }
    switch (text_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string(out.str_v);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.bool_v = true;
        if (literal("true")) return true;
        err_ = "bad literal";
        return false;
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.bool_v = false;
        if (literal("false")) return true;
        err_ = "bad literal";
        return false;
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        if (literal("null")) return true;
        err_ = "bad literal";
        return false;
      default: return number(out);
    }
  }

  bool object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        err_ = "expected object key";
        return false;
      }
      std::string key;
      if (!string(key)) return false;
      if (!consume(':')) {
        err_ = "expected ':'";
        return false;
      }
      JsonValue v;
      if (!value(v, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(v));
      if (consume(',')) continue;
      if (consume('}')) return true;
      err_ = "expected ',' or '}'";
      return false;
    }
  }

  bool array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (consume(']')) return true;
    for (;;) {
      JsonValue v;
      if (!value(v, depth + 1)) return false;
      out.items.push_back(std::move(v));
      if (consume(',')) continue;
      if (consume(']')) return true;
      err_ = "expected ',' or ']'";
      return false;
    }
  }

  bool string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              err_ = "truncated \\u escape";
              return false;
            }
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= unsigned(h - 'A' + 10);
              else {
                err_ = "bad \\u escape";
                return false;
              }
            }
            // BMP codepoint -> UTF-8 (surrogate pairs are passed through
            // as two 3-byte sequences — tolerable for a local protocol
            // whose emitters only escape control characters).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            err_ = "bad escape";
            return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        err_ = "unescaped control character";
        return false;
      }
      out += c;
      ++pos_;
    }
    err_ = "unterminated string";
    return false;
  }

  bool number(JsonValue& out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) {
      err_ = "unexpected character";
      return false;
    }
    // std::from_chars is locale-independent: strtod consults LC_NUMERIC
    // and rejects "1.5" under comma-decimal locales (ISSUE 5 fix), which
    // would make the daemon's wire protocol depend on the host's locale.
    const char* tok_begin = text_.data() + start;
    const char* tok_end = text_.data() + pos_;
    const auto r = std::from_chars(tok_begin, tok_end, out.num_v);
    if (r.ec != std::errc() || r.ptr != tok_end) {
      err_ = "malformed number";
      return false;
    }
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string err_ = "invalid JSON";
};

}  // namespace

StatusOr<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

bool deep_equal(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.bool_v == b.bool_v;
    case JsonValue::Kind::kNumber: return a.num_v == b.num_v;
    case JsonValue::Kind::kString: return a.str_v == b.str_v;
    case JsonValue::Kind::kArray: {
      if (a.items.size() != b.items.size()) return false;
      for (size_t i = 0; i < a.items.size(); ++i)
        if (!deep_equal(a.items[i], b.items[i])) return false;
      return true;
    }
    case JsonValue::Kind::kObject: {
      if (a.members.size() != b.members.size()) return false;
      // Order-insensitive; lookups go through get() so duplicate keys
      // compare by first occurrence on both sides, same as readers see.
      for (const auto& [k, va] : a.members) {
        const JsonValue* vb = b.get(k);
        if (!vb || !deep_equal(*a.get(k), *vb)) return false;
      }
      for (const auto& [k, vb] : b.members) {
        (void)vb;
        if (!a.get(k)) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace gpurf::api
