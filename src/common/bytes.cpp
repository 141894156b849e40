#include "common/bytes.h"

#include <array>
#include <cstdio>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace jbs {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v >> 32));
  PutU32(out, static_cast<uint32_t>(v));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}

uint32_t GetU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t GetU64(const uint8_t* p) {
  return (static_cast<uint64_t>(GetU32(p)) << 32) | GetU32(p + 4);
}

void PutVarint64(std::vector<uint8_t>& out, int64_t v) {
  if (v >= -112 && v <= 127) {
    out.push_back(static_cast<uint8_t>(v));
    return;
  }
  int base = -113;  // negative numbers
  uint64_t magnitude = ~static_cast<uint64_t>(v);
  if (v >= 0) {
    base = -121;  // positive numbers beyond one byte
    magnitude = static_cast<uint64_t>(v);
  }
  int length = 0;
  for (uint64_t tmp = magnitude; tmp != 0; tmp >>= 8) ++length;
  if (length == 0) length = 1;
  out.push_back(static_cast<uint8_t>(base - (length - 1)));
  for (int shift = (length - 1) * 8; shift >= 0; shift -= 8) {
    out.push_back(static_cast<uint8_t>(magnitude >> shift));
  }
}

std::optional<int64_t> GetVarint64(std::span<const uint8_t> data,
                                   size_t* offset) {
  if (*offset >= data.size()) return std::nullopt;
  const auto first = static_cast<int8_t>(data[*offset]);
  ++*offset;
  if (first >= -112) return static_cast<int64_t>(first);
  const bool negative = first >= -120;
  const int length = negative ? (-112 - first) : (-120 - first);
  if (*offset + static_cast<size_t>(length) > data.size()) return std::nullopt;
  uint64_t magnitude = 0;
  for (int i = 0; i < length; ++i) {
    magnitude = (magnitude << 8) | data[*offset];
    ++*offset;
  }
  if (negative) return static_cast<int64_t>(~magnitude);
  return static_cast<int64_t>(magnitude);
}

size_t VarintSize(int64_t v) {
  if (v >= -112 && v <= 127) return 1;
  uint64_t magnitude =
      v >= 0 ? static_cast<uint64_t>(v) : ~static_cast<uint64_t>(v);
  size_t length = 0;
  for (uint64_t tmp = magnitude; tmp != 0; tmp >>= 8) ++length;
  if (length == 0) length = 1;
  return 1 + length;
}

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

// One table lookup per byte. `crc` is the running register (already
// inverted), as in the fold below.
uint32_t CrcBytes(uint32_t crc, const uint8_t* p, size_t n) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// Inputs below this take the table loop: the fold needs four full 16-byte
// lanes to start.
constexpr size_t kFoldMinBytes = 64;

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// bit-reflected constants for P = 0x104C11DB7 (reflected 0xEDB88320):
//   fold by 512 bits: x^(512+32) mod P, x^(512-32) mod P  (4 lanes, 64 B/step)
//   fold by 128 bits: x^(128+32) mod P, x^(128-32) mod P  (1 lane, 16 B/step)
//   128 -> 64 bits:   x^64 mod P
//   Barrett, 64 -> 32 bits: P, floor(x^64 / P)
// The fold constants are reflected as 32-bit values and shifted left one
// bit; the Barrett pair is reflected as 33-bit values. The functions carry
// the target attribute themselves so the default compile flags stay
// baseline x86-64.
#define JBS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

JBS_CLMUL_TARGET inline __m128i Load16(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Multiplies each half of `acc` by its constant in `k` and adds `next`:
// moves `acc` forward by the distance `k` encodes.
JBS_CLMUL_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// `n` must be a multiple of 16 and at least kFoldMinBytes; `crc` is the
// running register, and the result is the register after all `n` bytes.
JBS_CLMUL_TARGET uint32_t CrcFold(uint32_t crc, const uint8_t* p, size_t n) {
  const __m128i k512 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i k128 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i k64 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i barrett = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k512, Load16(p));
    x1 = Fold(x1, k512, Load16(p + 16));
    x2 = Fold(x2, k512, Load16(p + 32));
    x3 = Fold(x3, k512, Load16(p + 48));
  }

  __m128i acc = Fold(x0, k128, x1);
  acc = Fold(acc, k128, x2);
  acc = Fold(acc, k128, x3);
  for (; n >= 16; p += 16, n -= 16) acc = Fold(acc, k128, Load16(p));

  // 128 -> 64 bits: fold the low half onto the high half, then the low
  // 32 bits of that onto the remaining 64.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k128, 0x10));
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k64, 0x00));

  // Barrett reduction, 64 -> 32 bits.
  __m128i t =
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, t), 1));
}

#undef JBS_CLMUL_TARGET

bool CpuHasFold() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed) {
  uint32_t crc = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  static const bool use_fold = CpuHasFold();
  if (use_fold && n >= kFoldMinBytes) {
    const size_t bulk = n & ~size_t{15};
    crc = CrcFold(crc, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~CrcBytes(crc, p, n);
}

std::string HumanBytes(uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (value == static_cast<uint64_t>(value)) {
    std::snprintf(buf, sizeof(buf), "%llu%s",
                  static_cast<unsigned long long>(value), kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", value, kUnits[unit]);
  }
  return buf;
}

}  // namespace jbs
