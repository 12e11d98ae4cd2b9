// StoragePool: recycled device storage, zeroed on reuse and bounded by
// the peak of live storage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "memory/device_mapping.h"
#include "memory/host_array.h"
#include "memory/storage_pool.h"

namespace homp::mem {
namespace {

constexpr std::size_t kMin = StoragePool::kMinPooledBytes;

bool all_zero(const std::byte* p, std::size_t n) {
  return std::all_of(p, p + n, [](std::byte b) { return b == std::byte{0}; });
}

void expect_within_peak(const StoragePool& pool) {
  EXPECT_LE(pool.live_bytes() + pool.cached_bytes(), pool.peak_bytes());
}

TEST(StoragePool, ReusesAReleasedBufferZeroed) {
  StoragePool pool;
  std::byte* p = pool.acquire(kMin);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(all_zero(p, kMin));
  std::memset(p, 0xab, kMin);
  pool.release(p, kMin);
  EXPECT_EQ(pool.cached_bytes(), kMin);
  EXPECT_EQ(pool.live_bytes(), 0u);

  std::byte* q = pool.acquire(kMin);
  EXPECT_EQ(q, p);
  EXPECT_TRUE(all_zero(q, kMin));
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_EQ(pool.live_bytes(), kMin);
  pool.release(q, kMin);
}

TEST(StoragePool, OnlyTheSameSizeIsReused) {
  StoragePool pool;
  std::byte* p = pool.acquire(2 * kMin);
  pool.release(p, 2 * kMin);
  std::byte* q = pool.acquire(2 * kMin + 8);  // a miss, frees p
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_TRUE(all_zero(q, 2 * kMin + 8));
  pool.release(q, 2 * kMin + 8);
}

TEST(StoragePool, SmallBuffersAreNotCached) {
  StoragePool pool;
  std::byte* p = pool.acquire(kMin - 1);
  EXPECT_TRUE(all_zero(p, kMin - 1));
  EXPECT_EQ(pool.live_bytes(), 0u);
  pool.release(p, kMin - 1);
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_EQ(pool.acquire(0), nullptr);
  pool.release(nullptr, 0);
}

TEST(StoragePool, NeverHoldsMoreThanItsPeak) {
  StoragePool pool;
  std::byte* a = pool.acquire(2 * kMin);
  std::byte* b = pool.acquire(kMin);
  EXPECT_EQ(pool.peak_bytes(), 3 * kMin);
  pool.release(b, kMin);
  expect_within_peak(pool);

  // 2k live + 1k cached + 1.5k new exceeds the 3k peak: the cached 1k
  // buffer is freed before the new one is made.
  std::byte* c = pool.acquire(kMin + kMin / 2);
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_EQ(pool.peak_bytes(), 3 * kMin + kMin / 2);
  expect_within_peak(pool);

  pool.release(a, 2 * kMin);
  pool.release(c, kMin + kMin / 2);
  expect_within_peak(pool);
  EXPECT_EQ(pool.cached_bytes(), 3 * kMin + kMin / 2);

  // A miss larger than the peak empties the cache, largest first.
  std::byte* d = pool.acquire(4 * kMin);
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_EQ(pool.peak_bytes(), 4 * kMin);
  pool.release(d, 4 * kMin);
  expect_within_peak(pool);
}

TEST(StoragePool, EvictsLargestFirst) {
  StoragePool pool;
  std::byte* big = pool.acquire(3 * kMin);
  std::byte* small = pool.acquire(kMin);
  pool.release(big, 3 * kMin);
  pool.release(small, kMin);
  // 4k cached, peak 4k: a 2k miss must free 2k; the 3k buffer goes.
  std::byte* mid = pool.acquire(2 * kMin);
  EXPECT_EQ(pool.cached_bytes(), kMin);
  EXPECT_EQ(pool.acquire(kMin), small);
  pool.release(small, kMin);
  pool.release(mid, 2 * kMin);
}

TEST(StoragePool, TrimFreesEveryCachedBuffer) {
  StoragePool pool;
  std::byte* a = pool.acquire(kMin);
  std::byte* b = pool.acquire(2 * kMin);
  pool.release(a, kMin);
  pool.release(b, 2 * kMin);
  EXPECT_EQ(pool.cached_bytes(), 3 * kMin);
  pool.trim();
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
}

TEST(StoragePool, DeviceMappingsRecycleZeroedStorage) {
  // 512 x 1024 doubles: exactly the smallest pooled size.
  auto a = HostArray<double>::matrix(512, 1024);
  MapSpec s;
  s.name = "a";
  s.dir = MapDirection::kFrom;  // nothing copied in: storage as allocated
  s.binding = bind_array(a);
  s.region = a.region();
  s.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};

  double* first = nullptr;
  {
    DeviceMapping m(s, s.region, s.region, /*shared=*/false,
                    /*materialize=*/true);
    auto v = m.view<double>();
    first = v.local_data();
    for (long long i = 0; i < 512; ++i) {
      for (long long j = 0; j < 1024; ++j) v(i, j) = 7.0;
    }
  }
  DeviceMapping m(s, s.region, s.region, /*shared=*/false,
                  /*materialize=*/true);
  auto v = m.view<double>();
  EXPECT_EQ(v.local_data(), first);
  for (long long i = 0; i < 512; ++i) {
    for (long long j = 0; j < 1024; ++j) ASSERT_EQ(v(i, j), 0.0);
  }
}

}  // namespace
}  // namespace homp::mem
