// DeviceMapping: real subregion copies, footprint bookkeeping, views.

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "common/error.h"
#include "memory/data_env.h"
#include "memory/device_mapping.h"
#include "memory/host_array.h"
#include "memory/view.h"

namespace homp::mem {
namespace {

MapSpec spec_1d(HostArray<double>& a, MapDirection dir) {
  MapSpec s;
  s.name = "a";
  s.dir = dir;
  s.binding = bind_array(a);
  s.region = a.region();
  s.partition = {dist::DimPolicy::align("loop")};
  return s;
}

TEST(DeviceMapping, CopyInOutRoundTrips1D) {
  auto a = HostArray<double>::vector(10);
  a.fill_with_index([](long long i) { return static_cast<double>(i); });
  auto s = spec_1d(a, MapDirection::kToFrom);

  dist::Region owned({dist::Range(3, 7)});
  DeviceMapping m(s, owned, owned, /*shared=*/false, /*materialize=*/true);
  m.copy_in();
  auto v = m.view<double>();
  EXPECT_EQ(v(3), 3.0);
  EXPECT_EQ(v(6), 6.0);
  v(4) = 44.0;
  m.copy_out();
  EXPECT_EQ(a(4), 44.0);
  EXPECT_EQ(a(2), 2.0);  // outside owned: untouched
  EXPECT_EQ(a(7), 7.0);
}

TEST(DeviceMapping, HaloFootprintCopiedButNotWrittenBack) {
  auto a = HostArray<double>::vector(10);
  a.fill_with_index([](long long i) { return static_cast<double>(i); });
  auto s = spec_1d(a, MapDirection::kToFrom);
  s.halo_before = 1;
  s.halo_after = 1;

  dist::Region owned({dist::Range(4, 6)});
  dist::Region fp({dist::Range(3, 7)});
  DeviceMapping m(s, owned, fp, false, true);
  m.copy_in();
  auto v = m.view<double>();
  EXPECT_EQ(v(3), 3.0);  // halo readable
  v(3) = -1.0;           // scribble on halo
  v(5) = 55.0;
  m.copy_out();
  EXPECT_EQ(a(3), 3.0);  // halo NOT written back
  EXPECT_EQ(a(5), 55.0);
  EXPECT_EQ(m.bytes_in(), 4 * 8.0);   // footprint
  EXPECT_EQ(m.bytes_out(), 2 * 8.0);  // owned only
}

TEST(DeviceMapping, TwoDimensionalRowSlices) {
  auto a = HostArray<double>::matrix(6, 4);
  a.fill_with_indices([](long long i, long long j) {
    return static_cast<double>(i * 10 + j);
  });
  MapSpec s;
  s.name = "m";
  s.dir = MapDirection::kToFrom;
  s.binding = bind_array(a);
  s.region = a.region();
  s.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};

  dist::Region owned({dist::Range(2, 4), dist::Range(0, 4)});
  DeviceMapping m(s, owned, owned, false, true);
  m.copy_in();
  auto v = m.view<double>();
  EXPECT_EQ(v(2, 0), 20.0);
  EXPECT_EQ(v(3, 3), 33.0);
  v(2, 1) = 99.0;
  m.copy_out();
  EXPECT_EQ(a(2, 1), 99.0);
  EXPECT_EQ(a(1, 1), 11.0);
  EXPECT_EQ(a(4, 1), 41.0);
}

TEST(DeviceMapping, SharedAliasesHostStorage) {
  auto a = HostArray<double>::vector(8, 1.0);
  auto s = spec_1d(a, MapDirection::kToFrom);
  dist::Region owned({dist::Range(0, 8)});
  DeviceMapping m(s, owned, owned, /*shared=*/true, true);
  EXPECT_EQ(m.bytes_in(), 0.0);
  EXPECT_EQ(m.bytes_out(), 0.0);
  auto v = m.view<double>();
  v(5) = 7.0;
  EXPECT_EQ(a(5), 7.0);  // no copy needed
}

TEST(DeviceMapping, DirectionsGateTransfers) {
  auto a = HostArray<double>::vector(4, 2.0);
  dist::Region whole({dist::Range(0, 4)});
  {
    auto s = spec_1d(a, MapDirection::kTo);
    DeviceMapping m(s, whole, whole, false, true);
    EXPECT_GT(m.bytes_in(), 0.0);
    EXPECT_EQ(m.bytes_out(), 0.0);
  }
  {
    auto s = spec_1d(a, MapDirection::kFrom);
    DeviceMapping m(s, whole, whole, false, true);
    EXPECT_EQ(m.bytes_in(), 0.0);
    EXPECT_GT(m.bytes_out(), 0.0);
    m.copy_in();  // no-op
    auto v = m.view<double>();
    EXPECT_EQ(v(0), 0.0);  // storage zero-initialized, not copied from host
  }
  {
    auto s = spec_1d(a, MapDirection::kAlloc);
    DeviceMapping m(s, whole, whole, false, true);
    EXPECT_EQ(m.bytes_in(), 0.0);
    EXPECT_EQ(m.bytes_out(), 0.0);
  }
}

TEST(DeviceMapping, ViewOutsideFootprintThrows) {
  auto a = HostArray<double>::vector(10, 0.0);
  auto s = spec_1d(a, MapDirection::kTo);
  dist::Region owned({dist::Range(2, 5)});
  DeviceMapping m(s, owned, owned, false, true);
  auto v = m.view<double>();
  EXPECT_THROW(v(1), ExecutionError);
  EXPECT_THROW(v(5), ExecutionError);
  EXPECT_NO_THROW(v(4));
}

using dist::Range;
using dist::Region;

TEST(ArrayViewBounds, TwoDimEscapeOnEachSideOfEachDim) {
  std::vector<double> store(3 * 4);
  ArrayView<double> v(store.data(), Region({Range(2, 5), Range(3, 7)}));
  EXPECT_EQ(&v(2, 3), &store[0]);
  EXPECT_EQ(&v(4, 6), &store[11]);
  EXPECT_EQ(&v(3, 4), &store[5]);
  EXPECT_THROW(v(1, 4), ExecutionError);  // dim 0 low
  EXPECT_THROW(v(5, 4), ExecutionError);  // dim 0 high
  EXPECT_THROW(v(3, 2), ExecutionError);  // dim 1 low
  EXPECT_THROW(v(3, 7), ExecutionError);  // dim 1 high
}

TEST(ArrayViewBounds, ThreeDimEscapeOnEachSideOfEachDim) {
  std::vector<double> store(2 * 2 * 3);
  ArrayView<double> v(store.data(),
                      Region({Range(1, 3), Range(2, 4), Range(5, 8)}));
  EXPECT_EQ(&v(1, 2, 5), &store[0]);
  EXPECT_EQ(&v(2, 3, 7), &store[11]);
  EXPECT_EQ(&v(2, 2, 6), &store[7]);
  EXPECT_THROW(v(0, 2, 5), ExecutionError);  // dim 0 low
  EXPECT_THROW(v(3, 2, 5), ExecutionError);  // dim 0 high
  EXPECT_THROW(v(1, 1, 5), ExecutionError);  // dim 1 low
  EXPECT_THROW(v(1, 4, 5), ExecutionError);  // dim 1 high
  EXPECT_THROW(v(1, 2, 4), ExecutionError);  // dim 2 low
  EXPECT_THROW(v(1, 2, 8), ExecutionError);  // dim 2 high
}

TEST(ArrayViewBounds, ExtremeIndicesNeverWrapIntoFootprint) {
  std::vector<double> store(10 * 10 * 10);
  const Range r(10, 20);  // lo > 0
  ArrayView<double> v1(store.data(), Region({r}));
  ArrayView<double> v3(store.data(), Region({r, r, r}));
  for (long long bad : {LLONG_MIN, LLONG_MAX, r.lo - 1, r.hi}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(v1(bad), ExecutionError);
    EXPECT_FALSE(v1.covers(bad));
    EXPECT_THROW(v3(bad, 10, 10), ExecutionError);
    EXPECT_THROW(v3(10, bad, 10), ExecutionError);
    EXPECT_THROW(v3(10, 10, bad), ExecutionError);
  }
  EXPECT_EQ(&v1(10), &store[0]);
  EXPECT_EQ(&v1(19), &store[9]);
  EXPECT_TRUE(v1.covers(19));
  EXPECT_EQ(&v3(19, 19, 19), &store[999]);
}

TEST(ArrayViewBounds, MissNamesIndexDimAndFootprint) {
  std::vector<double> store(10 * 4);
  ArrayView<double> v(store.data(), Region({Range(10, 20), Range(0, 4)}));
  try {
    v(12, -1);
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_EQ(std::string(e.what()),
              "kernel accessed global index -1 in dim 1 outside mapped "
              "footprint [10:20)[0:4) — data distribution/alignment mapped "
              "too little data");
  }
}

TEST(ArrayViewBounds, EmptyFootprintRejectsEveryAccess) {
  double cell = 0.0;
  ArrayView<double> v1(&cell, Region({Range(4, 4)}));
  for (long long i : {LLONG_MIN, -1LL, 0LL, 3LL, 4LL, 5LL, LLONG_MAX}) {
    SCOPED_TRACE(i);
    EXPECT_THROW(v1(i), ExecutionError);
    EXPECT_FALSE(v1.covers(i));
  }
  ArrayView<double> v2(&cell, Region({Range(0, 4), Range(7, 3)}));
  EXPECT_THROW(v2(0, 7), ExecutionError);
  EXPECT_THROW(v2(0, 3), ExecutionError);
  ArrayView<double> v3(&cell, Region({Range(0, 1), Range(0, 1), Range()}));
  EXPECT_THROW(v3(0, 0, 0), ExecutionError);
}

TEST(DeviceMapping, OwnedMustBeInsideFootprint) {
  auto a = HostArray<double>::vector(10, 0.0);
  auto s = spec_1d(a, MapDirection::kTo);
  EXPECT_THROW(DeviceMapping(s, dist::Region({dist::Range(0, 8)}),
                             dist::Region({dist::Range(2, 5)}), false, true),
               ConfigError);
}

TEST(DeviceMapping, PushPullSubregions) {
  auto a = HostArray<double>::vector(10);
  a.fill_with_index([](long long i) { return static_cast<double>(i); });
  auto s = spec_1d(a, MapDirection::kAlloc);
  dist::Region owned({dist::Range(2, 8)});
  DeviceMapping m(s, owned, owned, false, true);
  auto v = m.view<double>();
  for (long long i = 2; i < 8; ++i) v(i) = 100.0 + i;
  m.push_to_host(dist::Region({dist::Range(2, 4)}));
  EXPECT_EQ(a(2), 102.0);
  EXPECT_EQ(a(4), 4.0);  // outside pushed band
  a(7) = -7.0;
  m.pull_from_host(dist::Region({dist::Range(7, 8)}));
  EXPECT_EQ(v(7), -7.0);
  EXPECT_THROW(m.push_to_host(dist::Region({dist::Range(0, 3)})),
               ConfigError);
}

TEST(DataEnv, LookupAndTotals) {
  auto a = HostArray<double>::vector(6, 1.0);
  auto b = HostArray<double>::vector(4, 2.0);
  auto sa = spec_1d(a, MapDirection::kTo);
  auto sb = spec_1d(b, MapDirection::kToFrom);
  sb.name = "b";
  sb.region = b.region();

  MappingStore store;
  dist::Region ra({dist::Range(0, 6)});
  dist::Region rb({dist::Range(0, 4)});
  auto& ma = store.create(sa, ra, ra, false, true);
  auto& mb = store.create(sb, rb, rb, false, true);
  DeviceDataEnv env;
  env.add("a", &ma);
  env.add("b", &mb);
  EXPECT_TRUE(env.contains("a"));
  EXPECT_FALSE(env.contains("c"));
  EXPECT_THROW(env.mapping("c"), ConfigError);
  EXPECT_EQ(env.total_bytes_in(), 6 * 8.0 + 4 * 8.0);
  EXPECT_EQ(env.total_bytes_out(), 4 * 8.0);
  EXPECT_THROW(env.add("a", &ma), ConfigError);
  auto fork = env.fork();
  EXPECT_TRUE(fork.contains("b"));
  EXPECT_EQ(fork.size(), 2u);
}

TEST(DataEnv, ViewTypeSizeMismatchThrows) {
  auto a = HostArray<double>::vector(4, 0.0);
  auto s = spec_1d(a, MapDirection::kTo);
  dist::Region r({dist::Range(0, 4)});
  MappingStore store;
  auto& m = store.create(s, r, r, false, true);
  DeviceDataEnv env;
  env.add("a", &m);
  EXPECT_THROW(env.view<float>("a"), ConfigError);
  EXPECT_NO_THROW(env.view<double>("a"));
}

}  // namespace
}  // namespace homp::mem
