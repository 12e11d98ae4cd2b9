// Checksummer contract, for both kinds: segmentation-independent digests,
// length folded into the digest, and every single-bit flip detected.

#include "common/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/prng.h"

namespace homp {
namespace {

constexpr ChecksumKind kKinds[] = {ChecksumKind::kFnv1a, ChecksumKind::kMix64};

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Prng p(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(p.next_u64());
  return out;
}

TEST(Checksum, DigestIndependentOfUpdateSplit) {
  const auto buf = random_bytes(64, 1);
  for (ChecksumKind kind : kKinds) {
    SCOPED_TRACE(to_string(kind));
    const std::uint64_t whole = checksum_bytes(kind, buf.data(), buf.size());
    for (std::size_t split = 0; split <= 17; ++split) {
      Checksummer c(kind);
      c.update(buf.data(), split);
      c.update(buf.data() + split, buf.size() - split);
      EXPECT_EQ(c.digest(), whole) << "split at " << split;

      // Three pieces, the middle one shorter than a word: a partial word
      // is carried across more than one update().
      Checksummer c3(kind);
      const std::size_t mid = split % 7;
      c3.update(buf.data(), split);
      c3.update(buf.data() + split, mid);
      c3.update(buf.data() + split + mid, buf.size() - split - mid);
      EXPECT_EQ(c3.digest(), whole) << "split at " << split << "+" << mid;
    }
    Checksummer bytewise(kind);
    for (unsigned char b : buf) bytewise.update(&b, 1);
    EXPECT_EQ(bytewise.digest(), whole);
  }
}

TEST(Checksum, LengthIsPartOfTheDigest) {
  const char abc[] = "abc";  // four bytes: "abc" and its terminator
  for (ChecksumKind kind : kKinds) {
    SCOPED_TRACE(to_string(kind));
    EXPECT_NE(checksum_bytes(kind, abc, 3), checksum_bytes(kind, abc, 4));
    EXPECT_NE(checksum_bytes(kind, abc, 0), checksum_bytes(kind, "\0", 1));
  }
}

TEST(Checksum, EverySingleBitFlipChangesTheDigest) {
  auto buf = random_bytes(4096, 2);
  for (ChecksumKind kind : kKinds) {
    SCOPED_TRACE(to_string(kind));
    const std::uint64_t clean = checksum_bytes(kind, buf.data(), buf.size());
    std::size_t undetected = 0;
    for (std::size_t byte = 0; byte < buf.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        buf[byte] ^= static_cast<unsigned char>(1u << bit);
        if (checksum_bytes(kind, buf.data(), buf.size()) == clean) {
          ++undetected;
        }
        buf[byte] ^= static_cast<unsigned char>(1u << bit);
      }
    }
    EXPECT_EQ(undetected, 0u);
  }
}

}  // namespace
}  // namespace homp
