#include "common/bytes.h"

#include <gtest/gtest.h>

#include <limits>

namespace jbs {
namespace {

TEST(BytesTest, FixedWidthRoundTrip) {
  std::vector<uint8_t> buf;
  PutU16(buf, 0xBEEF);
  PutU32(buf, 0xDEADBEEF);
  PutU64(buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 2u + 4u + 8u);
  EXPECT_EQ(GetU16(buf.data()), 0xBEEF);
  EXPECT_EQ(GetU32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(GetU64(buf.data() + 6), 0x0123456789ABCDEFull);
}

TEST(BytesTest, FixedWidthIsBigEndian) {
  std::vector<uint8_t> buf;
  PutU32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

class VarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  const int64_t v = GetParam();
  std::vector<uint8_t> buf;
  PutVarint64(buf, v);
  EXPECT_EQ(buf.size(), VarintSize(v));
  size_t offset = 0;
  auto decoded = GetVarint64(buf, &offset);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, v);
  EXPECT_EQ(offset, buf.size());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0, 1, -1, 127, 128, -112, -113, 255, 256, 1 << 20,
                      -(1 << 20), int64_t{1} << 40, -(int64_t{1} << 40),
                      std::numeric_limits<int64_t>::max(),
                      std::numeric_limits<int64_t>::min()));

TEST(BytesTest, VarintSingleByteRange) {
  for (int64_t v = -112; v <= 127; ++v) {
    EXPECT_EQ(VarintSize(v), 1u) << v;
  }
  EXPECT_GT(VarintSize(128), 1u);
  EXPECT_GT(VarintSize(-113), 1u);
}

TEST(BytesTest, VarintTruncatedInputReturnsNullopt) {
  std::vector<uint8_t> buf;
  PutVarint64(buf, int64_t{1} << 40);
  ASSERT_GT(buf.size(), 2u);
  std::vector<uint8_t> truncated(buf.begin(), buf.end() - 1);
  size_t offset = 0;
  EXPECT_FALSE(GetVarint64(truncated, &offset).has_value());
}

TEST(BytesTest, VarintEmptyInput) {
  size_t offset = 0;
  EXPECT_FALSE(GetVarint64({}, &offset).has_value());
}

TEST(BytesTest, VarintSequenceDecodes) {
  std::vector<uint8_t> buf;
  const int64_t values[] = {5, 70000, -3, 1 << 30};
  for (int64_t v : values) PutVarint64(buf, v);
  size_t offset = 0;
  for (int64_t v : values) {
    auto d = GetVarint64(buf, &offset);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, v);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(BytesTest, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 for the IEEE polynomial.
  const std::string data = "123456789";
  EXPECT_EQ(Crc32(AsBytes(data)), 0xCBF43926u);
}

TEST(BytesTest, Crc32EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(BytesTest, Crc32Incremental) {
  const std::string whole = "hello world";
  const std::string a = "hello ";
  const std::string b = "world";
  const uint32_t one_shot = Crc32(AsBytes(whole));
  const uint32_t chained = Crc32(AsBytes(b), Crc32(AsBytes(a)));
  EXPECT_EQ(one_shot, chained);
}

// Bit-at-a-time CRC-32/IEEE register update, independent of the table
// and the carry-less-multiply fold inside Crc32. `reg` is the inverted
// running register.
uint32_t BitwiseCrcStep(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    reg = (reg & 1) != 0 ? (reg >> 1) ^ 0xEDB88320u : reg >> 1;
  }
  return reg;
}

std::vector<uint8_t> PatternBytes(size_t n) {
  std::vector<uint8_t> out(n);
  uint32_t x = 0x2545F491u;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<uint8_t>(x);
  }
  return out;
}

// Every length from 0 to 1100 at every start offset 0..15 crosses the
// table path (< 64 bytes), the fold entry, the 16-byte fold loop and
// every 1..15-byte tail.
TEST(BytesTest, Crc32MatchesBitwiseReference) {
  constexpr size_t kMaxLen = 1100;
  const std::vector<uint8_t> buf = PatternBytes(kMaxLen + 16);
  for (const uint32_t seed : {0u, 0xFFFFFFFFu, 0x5EEDC0DEu}) {
    for (size_t offset = 0; offset < 16; ++offset) {
      const uint8_t* start = buf.data() + offset;
      uint32_t reg = ~seed;  // reference register after `len` bytes
      for (size_t len = 0; len <= kMaxLen; ++len) {
        if (len > 0) reg = BitwiseCrcStep(reg, start[len - 1]);
        ASSERT_EQ(Crc32({start, len}, seed), ~reg)
            << "len=" << len << " offset=" << offset << " seed=" << seed;
      }
    }
  }
}

TEST(BytesTest, Crc32ChainsAtEverySplit) {
  const std::vector<uint8_t> buf = PatternBytes(300);
  const std::span<const uint8_t> all(buf);
  const uint32_t whole = Crc32(all);
  for (size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(Crc32(all.subspan(split), Crc32(all.first(split))), whole)
        << "split=" << split;
  }
}

TEST(BytesTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(0), "0B");
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(128 * 1024), "128KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3MB");
  EXPECT_EQ(HumanBytes(uint64_t{256} * 1024 * 1024 * 1024), "256GB");
  EXPECT_EQ(HumanBytes(1536), "1.5KB");
}

}  // namespace
}  // namespace jbs
