// Tests for the Table-3 reduced-precision float formats: encoding layout,
// round-to-nearest-even, special values, denormal flush, parameterized
// properties across all seven formats, and the quantizer against the
// branchy encode/decode oracle it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/bitutil.hpp"
#include "common/rng.hpp"
#include "fp/format.hpp"

namespace gpurf::fp {
namespace {

TEST(Format, Table3Definitions) {
  const auto& f = table3_formats();
  ASSERT_EQ(f.size(), 7u);
  const int totals[] = {32, 28, 24, 20, 16, 12, 8};
  const int exps[] = {8, 7, 6, 5, 5, 4, 3};
  const int mans[] = {23, 20, 17, 14, 10, 7, 4};
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(f[i].total_bits, totals[i]);
    EXPECT_EQ(f[i].exp_bits, exps[i]);
    EXPECT_EQ(f[i].man_bits, mans[i]);
    // sign + exponent + mantissa == total (Table 3: "All configurations
    // also include a sign bit").
    EXPECT_EQ(1 + f[i].exp_bits + f[i].man_bits, f[i].total_bits);
    EXPECT_EQ(f[i].slices(), f[i].total_bits / 4);
  }
}

TEST(Format, LookupByBits) {
  EXPECT_EQ(format_for_bits(16).man_bits, 10);
  EXPECT_THROW(format_for_bits(17), gpurf::Error);
}

TEST(Format, Fp32IsIdentity) {
  const auto f32 = format_for_bits(32);
  const float vals[] = {0.f, -0.f, 1.f, 3.14159f, -1e30f, 1e-40f};
  for (float v : vals) {
    EXPECT_EQ(encode(v, f32), float_bits(v));
    EXPECT_EQ(float_bits(quantize(v, f32)), float_bits(v));
  }
}

TEST(Format, HalfPrecisionKnownValues) {
  const auto h = format_for_bits(16);  // IEEE binary16
  EXPECT_EQ(encode(1.0f, h), 0x3c00u);
  EXPECT_EQ(encode(-2.0f, h), 0xc000u);
  EXPECT_EQ(encode(0.5f, h), 0x3800u);
  EXPECT_EQ(encode(65504.0f, h), 0x7bffu);  // max half
  EXPECT_EQ(decode(0x3c00u, h), 1.0f);
  EXPECT_EQ(decode(0x7c00u, h), std::numeric_limits<float>::infinity());
}

TEST(Format, RoundToNearestEven) {
  const auto h = format_for_bits(16);
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half value;
  // RNE rounds to the even mantissa (1.0).
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(quantize(halfway, h), 1.0f);
  // Slightly above halfway rounds up.
  const float above = 1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -16);
  EXPECT_EQ(quantize(above, h), 1.0f + std::ldexp(1.0f, -10));
}

TEST(Format, OverflowSaturatesToInfinity) {
  const auto h = format_for_bits(16);
  EXPECT_TRUE(std::isinf(quantize(1e6f, h)));
  EXPECT_TRUE(std::isinf(quantize(-1e6f, h)));
  EXPECT_LT(quantize(-1e6f, h), 0.f);
  const auto f8 = format_for_bits(8);
  // 8-bit: 3 exponent bits, bias 3, max normal = 2^4 * 1.9375 = 15.5.
  EXPECT_EQ(quantize(15.5f, f8), 15.5f);
  EXPECT_TRUE(std::isinf(quantize(32.f, f8)));
}

TEST(Format, DenormalsFlushToZero) {
  const auto h = format_for_bits(16);
  // Smallest half normal is 2^-14; below that flushes to (signed) zero.
  EXPECT_EQ(quantize(std::ldexp(1.0f, -14), h), std::ldexp(1.0f, -14));
  EXPECT_EQ(quantize(std::ldexp(1.0f, -15), h), 0.0f);
  EXPECT_EQ(float_bits(quantize(-std::ldexp(1.0f, -15), h)),
            float_bits(-0.0f));
  // binary32 denormal inputs also flush.
  EXPECT_EQ(quantize(std::ldexp(1.0f, -140), format_for_bits(24)), 0.0f);
}

TEST(Format, NanPropagates) {
  for (const auto& f : table3_formats()) {
    const float q = quantize(std::nanf(""), f);
    EXPECT_TRUE(std::isnan(q)) << f.total_bits;
  }
}

TEST(Format, InfinityPreserved) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto& f : table3_formats()) {
    EXPECT_EQ(quantize(inf, f), inf) << f.total_bits;
    EXPECT_EQ(quantize(-inf, f), -inf) << f.total_bits;
  }
}

TEST(Format, QuantizedFractionsExact) {
  // k/256 for k in [0,255] has at most 8 significand bits: exact from
  // 12-bit (7+1 significand... only k with <= 8 significand bits) upward.
  const auto f16 = format_for_bits(16);
  for (int k = 0; k < 256; ++k) {
    const float v = float(k) / 256.0f;
    EXPECT_TRUE(exactly_representable(v, f16)) << k;
  }
  // 0.3 is not exactly representable anywhere below binary32.
  for (const auto& f : table3_formats()) {
    if (f.is_fp32()) continue;
    EXPECT_FALSE(exactly_representable(0.3f, f)) << f.total_bits;
  }
}

// ---------------------------------------------------------------- properties

class FormatProperty : public ::testing::TestWithParam<int> {};

TEST_P(FormatProperty, EncodeFitsWidth) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.next_float(-1000.f, 1000.f);
    const uint32_t bits = encode(v, fmt);
    EXPECT_EQ(bits & ~low_mask(fmt.total_bits), 0u)
        << "encoded value spills beyond " << fmt.total_bits << " bits";
  }
}

TEST_P(FormatProperty, QuantizeIsIdempotent) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam() * 7);
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.next_float(-100.f, 100.f);
    const float q1 = quantize(v, fmt);
    const float q2 = quantize(q1, fmt);
    EXPECT_EQ(float_bits(q1), float_bits(q2));
  }
}

TEST_P(FormatProperty, QuantizeIsMonotone) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam() * 13);
  for (int i = 0; i < 2000; ++i) {
    float a = rng.next_float(-50.f, 50.f);
    float b = rng.next_float(-50.f, 50.f);
    if (a > b) std::swap(a, b);
    const float qa = quantize(a, fmt);
    const float qb = quantize(b, fmt);
    EXPECT_LE(qa, qb) << a << " vs " << b;
  }
}

TEST_P(FormatProperty, RelativeErrorBounded) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam() * 31);
  // Values inside the format's normal range: relative error <= 2^-(m+1).
  const double max_rel = std::ldexp(1.0, -(fmt.man_bits + 1));
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.next_float(0.26f, 8.f);  // inside all normal ranges
    const float q = quantize(v, fmt);
    EXPECT_LE(std::abs(double(q) - v) / v, max_rel * 1.0000001) << v;
  }
}

TEST_P(FormatProperty, SignSymmetry) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam() * 17);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.next_float(0.f, 100.f);
    EXPECT_EQ(float_bits(quantize(-v, fmt)),
              float_bits(-quantize(v, fmt)));
  }
}

// ---------------------------------------------------------- quantizer oracle
//
// quantize() is one branch-free rule on the binary32 bits.  The oracle is
// the branchy encode/decode pair it replaced, kept here verbatim: for every
// input, quantize(v) and quantize_warp must equal decode(encode(v)) of the
// oracle, and encode(v) must equal the oracle's encode(v).

uint32_t oracle_encode(float v, const FloatFormat& fmt) {
  const uint32_t raw = float_bits(v);
  if (fmt.is_fp32()) return raw;

  const uint32_t sign = raw >> 31;
  const int exp = static_cast<int>((raw >> 23) & 0xff);
  const uint32_t man = raw & 0x7fffff;

  const int mb = fmt.man_bits;
  const uint32_t sign_shifted = sign << (fmt.total_bits - 1);
  const uint32_t exp_mask_target = static_cast<uint32_t>(fmt.max_exp_field());

  if (exp == 0xff) {
    uint32_t out = sign_shifted | (exp_mask_target << mb);
    if (man != 0) out |= (1u << (mb - 1));
    return out;
  }
  if (exp == 0) return sign_shifted;

  int e_target = exp - 127 + fmt.bias();
  uint32_t m = man;
  const int drop = 23 - mb;
  uint32_t m_hi = m >> drop;
  const uint32_t round_bit = (m >> (drop - 1)) & 1u;
  const uint32_t sticky = m & low_mask(drop - 1);
  if (round_bit && (sticky != 0 || (m_hi & 1u))) {
    ++m_hi;
    if (m_hi == (1u << mb)) {
      m_hi = 0;
      ++e_target;
    }
  }
  if (e_target >= fmt.max_exp_field())
    return sign_shifted | (exp_mask_target << mb);
  if (e_target <= 0) return sign_shifted;
  return sign_shifted | (static_cast<uint32_t>(e_target) << mb) | m_hi;
}

float oracle_decode(uint32_t bits, const FloatFormat& fmt) {
  if (fmt.is_fp32()) return bits_float(bits);

  const int mb = fmt.man_bits;
  const uint32_t sign = (bits >> (fmt.total_bits - 1)) & 1u;
  const uint32_t e = (bits >> mb) & static_cast<uint32_t>(fmt.max_exp_field());
  const uint32_t m = bits & low_mask(mb);

  if (e == 0) return bits_float(sign << 31);
  if (e == static_cast<uint32_t>(fmt.max_exp_field())) {
    if (m == 0) return bits_float((sign << 31) | 0x7f800000u);
    return bits_float((sign << 31) | 0x7fc00000u);
  }
  const int exp32 = static_cast<int>(e) - fmt.bias() + 127;
  const uint32_t man32 = m << (23 - mb);
  return bits_float((sign << 31) | (static_cast<uint32_t>(exp32) << 23) |
                    man32);
}

/// Feeds binary32 bit patterns through quantize, quantize_warp (32 at a
/// time) and encode, counting disagreements with the oracle.
class OracleCheck {
 public:
  explicit OracleCheck(const FloatFormat& fmt) : fmt_(fmt) {}

  void add(uint32_t x) {
    batch_[n_++] = x;
    if (n_ == 32) flush();
  }

  void flush() {
    uint32_t warp[32] = {};
    std::copy(batch_, batch_ + n_, warp);
    quantize_warp(warp, fmt_);
    for (int l = 0; l < n_; ++l) {
      const float v = bits_float(batch_[l]);
      const uint32_t want =
          float_bits(oracle_decode(oracle_encode(v, fmt_), fmt_));
      if (float_bits(quantize(v, fmt_)) != want || warp[l] != want ||
          encode(v, fmt_) != oracle_encode(v, fmt_)) {
        if (mismatches_++ == 0) first_bad_ = batch_[l];
      }
    }
    checked_ += static_cast<uint64_t>(n_);
    n_ = 0;
  }

  void expect_clean() {
    flush();
    EXPECT_GT(checked_, 0u);
    EXPECT_EQ(mismatches_, 0u)
        << fmt_.total_bits << "-bit format, first mismatch at 0x" << std::hex
        << first_bad_;
  }

 private:
  FloatFormat fmt_;
  uint32_t batch_[32] = {};
  int n_ = 0;
  uint64_t checked_ = 0;
  uint64_t mismatches_ = 0;
  uint32_t first_bad_ = 0;
};

class QuantizerOracle : public ::testing::TestWithParam<int> {};

// Every exponent x every pattern of the low drop+1 mantissa bits (the kept
// LSB, the round bit and the sticky bits: ties, carries into the exponent,
// overflow to infinity, underflow to zero) under a few high mantissas, both
// signs.  Past 12 low bits (the 16-, 12- and 8-bit formats) the top 12 of
// them are swept and the bits below take 0, 1 or all ones; a one-off sweep
// of all 2^32 patterns per format is too slow for a unit test.
TEST_P(QuantizerOracle, EveryExponentAndRoundingPattern) {
  const auto fmt = format_for_bits(GetParam());
  const int low_bits = 23 - fmt.man_bits + 1;
  const int swept = std::min(low_bits, 12);
  const int tail = low_bits - swept;
  const uint32_t high_max = low_mask(23 - low_bits);
  const uint32_t tails[] = {0u, 1u, low_mask(tail)};
  OracleCheck check(fmt);
  for (uint32_t sign : {0u, 0x80000000u})
    for (uint32_t e = 0; e < 256; ++e)
      for (uint32_t high : {0u, 1u, high_max})
        for (uint32_t p = 0; p < (1u << swept); ++p)
          for (int t = 0; t < (tail > 0 ? 3 : 1); ++t)
            check.add(sign | e << 23 | high << low_bits | p << tail |
                      tails[t]);
  check.expect_clean();
}

TEST_P(QuantizerOracle, SpecialValues) {
  const auto fmt = format_for_bits(GetParam());
  OracleCheck check(fmt);
  const uint32_t magnitudes[] = {
      0u,           // zero
      1u,           // smallest binary32 denormal
      0x00400000u,  // denormals
      0x007fffffu,  // largest denormal
      0x00800000u,  // smallest binary32 normal
      0x7f7fffffu,  // largest binary32 normal
      0x7f800000u,  // infinity
      0x7fc00000u,  // quiet NaNs
      0x7fc00001u,
      0x7fffffffu,
      0x7f800001u,  // signalling NaNs
      0x7fa00000u,
      0x7fbfffffu,
  };
  for (uint32_t m : magnitudes) {
    check.add(m);
    check.add(m | 0x80000000u);
  }
  check.expect_clean();
}

TEST_P(QuantizerOracle, XorshiftPatterns) {
  const auto fmt = format_for_bits(GetParam());
  OracleCheck check(fmt);
  uint32_t x = 0x9e3779b9u ^ static_cast<uint32_t>(GetParam());
  for (int i = 0; i < (1 << 20); ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    check.add(x);
  }
  check.expect_clean();
}

INSTANTIATE_TEST_SUITE_P(NarrowWidths, QuantizerOracle,
                         ::testing::Values(28, 24, 20, 16, 12, 8),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "bits" + std::to_string(i.param);
                         });

TEST(QuantizerOracle, Fp32WarpIsIdentity) {
  uint32_t warp[32];
  for (uint32_t l = 0; l < 32; ++l) warp[l] = 0x7f800001u + l * 0x01010101u;
  uint32_t copy[32];
  std::copy(warp, warp + 32, copy);
  quantize_warp(warp, format_for_bits(32));
  for (int l = 0; l < 32; ++l) EXPECT_EQ(warp[l], copy[l]);
}

TEST(Format, Table3Membership) {
  for (const auto& f : table3_formats()) EXPECT_TRUE(is_table3(f));
  EXPECT_FALSE(is_table3(FloatFormat{24, 0, 23}));
  EXPECT_FALSE(is_table3(FloatFormat{32, 0, 23}));
  EXPECT_FALSE(is_table3(FloatFormat{16, 4, 11}));
}

INSTANTIATE_TEST_SUITE_P(AllWidths, FormatProperty,
                         ::testing::Values(32, 28, 24, 20, 16, 12, 8),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "bits" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace gpurf::fp
