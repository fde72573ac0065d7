#include "fp/format.hpp"

#include <algorithm>
#include <cmath>

#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace gpurf::fp {

const std::array<FloatFormat, 7>& table3_formats() {
  static const std::array<FloatFormat, 7> kFormats = {{
      {32, 8, 23},
      {28, 7, 20},
      {24, 6, 17},
      {20, 5, 14},
      {16, 5, 10},
      {12, 4, 7},
      {8, 3, 4},
  }};
  return kFormats;
}

FloatFormat format_for_bits(int total_bits) {
  for (const auto& f : table3_formats())
    if (f.total_bits == total_bits) return f;
  GPURF_CHECK(false, "no Table-3 float format with " << total_bits << " bits");
  return {};
}

bool is_table3(const FloatFormat& fmt) {
  const auto& t = table3_formats();
  return std::find(t.begin(), t.end(), fmt) != t.end();
}

namespace {

// quantize() on binary32 bits, for a Table-3 format narrower than binary32.
// The format's constants live in the object, where no lane store can alias
// them, and the rule is branch-free, so quantize_warp's loop vectorizes.
struct Quantizer {
  explicit Quantizer(const FloatFormat& fmt)
      : drop(23 - fmt.man_bits),
        low((1u << drop) - 1),
        inf_from(static_cast<uint32_t>(128 + fmt.bias()) << 23),
        zero_below(static_cast<uint32_t>(128 - fmt.bias()) << 23) {}

  uint32_t operator()(uint32_t bits) const {
    const uint32_t mag = bits & 0x7fffffffu;
    // Round to nearest even: add just under half, plus the kept LSB.
    uint32_t r = (mag + (low >> 1) + ((mag >> drop) & 1u)) & ~low;
    r = r >= inf_from ? 0x7f800000u : r;  // overflow (and infinity)
    r = r < zero_below ? 0u : r;          // underflow, denormals
    r = mag > 0x7f800000u ? 0x7fc00000u : r;  // NaN
    return r | (bits & 0x80000000u);
  }

  int drop;
  uint32_t low, inf_from, zero_below;
};

}  // namespace

float quantize(float v, const FloatFormat& fmt) {
  if (fmt.is_fp32()) return v;
  return bits_float(Quantizer(fmt)(float_bits(v)));
}

uint32_t encode(float v, const FloatFormat& fmt) {
  if (fmt.is_fp32()) return float_bits(v);
  const uint32_t q = Quantizer(fmt)(float_bits(v));
  // q is a signed zero, infinity, the quiet NaN or a normal of `fmt`.
  const uint32_t exp = (q >> 23) & 0xffu;
  const uint32_t e =
      exp == 0 ? 0
      : exp == 0xffu
          ? static_cast<uint32_t>(fmt.max_exp_field())
          : exp - 127 + static_cast<uint32_t>(fmt.bias());
  return (q >> 31) << (fmt.total_bits - 1) | e << fmt.man_bits |
         (q & 0x7fffffu) >> (23 - fmt.man_bits);
}

float decode(uint32_t bits, const FloatFormat& fmt) {
  if (fmt.is_fp32()) return bits_float(bits);
  const int mb = fmt.man_bits;
  const uint32_t max_e = static_cast<uint32_t>(fmt.max_exp_field());
  const uint32_t e = (bits >> mb) & max_e;
  const uint32_t m = bits & low_mask(mb);
  uint32_t mag = (e + 127 - static_cast<uint32_t>(fmt.bias())) << 23 |
                 m << (23 - mb);
  if (e == 0) mag = 0;
  if (e == max_e) mag = m != 0 ? 0x7fc00000u : 0x7f800000u;
  return bits_float(((bits >> (fmt.total_bits - 1)) & 1u) << 31 | mag);
}

bool exactly_representable(float v, const FloatFormat& fmt) {
  const float q = quantize(v, fmt);
  if (std::isnan(v)) return std::isnan(q);
  return float_bits(q) == float_bits(v);
}

void quantize_warp(uint32_t* bits, const FloatFormat& fmt) {
  if (fmt.is_fp32()) return;
  const Quantizer q(fmt);
  for (int l = 0; l < 32; ++l) bits[l] = q(bits[l]);
}

}  // namespace gpurf::fp
