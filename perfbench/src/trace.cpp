// Host clock, host-speed calibration, allocation counter and span
// tracer of the benchmark.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace {

// The benchmark process is single-threaded (nothing in the library
// starts a thread), so a plain counter is exact.
std::uint64_t g_allocations = 0;

}  // namespace

// Replacement global allocation functions: count every operator new so
// the traced run can report heap allocations per offload and per event.
// The array, aligned and nothrow forms all route through these two.
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t allocations() { return g_allocations; }

namespace {

volatile std::uint64_t g_sink = 0;  // keeps the routine's result alive

// The reference routine: the kinds of work the runtime does most (heap
// nodes, hashing, sorting, pointer chasing, dependent arithmetic) on a
// fixed input that fits in L2. Returns its host seconds.
double reference_routine() {
  static const std::vector<std::uint64_t> keys = [] {
    std::vector<std::uint64_t> k(4096);
    for (std::size_t i = 0; i < k.size(); ++i) k[i] = hash_mix(7, i);
    return k;
  }();
  const double t0 = now_s();
  std::vector<std::uint64_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::uint64_t, std::uint64_t> index;
  for (std::size_t i = 0; i < keys.size(); ++i) index[keys[i]] = i;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < sorted.size(); i += 3) acc += index[sorted[i]];
  std::map<std::uint64_t, int> tree;
  for (std::size_t i = 0; i < 1024; ++i) tree.emplace(keys[i], 1);
  for (const auto& [k, v] : tree) acc ^= k + static_cast<std::uint64_t>(v);
  double x = 1.0;
  for (int i = 0; i < 20000; ++i) x = x * 1.0000001 + 1e-9;
  g_sink = acc + static_cast<std::uint64_t>(x);
  return now_s() - t0;
}

}  // namespace

double host_slowness(int reps) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(reference_routine());
  return quantile(t, 0.5) / kReferenceRoutineS;
}

double calibrate_after(double busy_s) {
  return host_slowness(
      std::max(3, static_cast<int>(std::lround(busy_s / kCalibrateEvery))));
}

std::size_t host_l3_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(in >> s)) return 0;
  std::size_t mult = 1;
  if (s.back() == 'K' || s.back() == 'M') {
    mult = s.back() == 'K' ? 1024 : 1024 * 1024;
    s.pop_back();
  }
  try {
    return static_cast<std::size_t>(std::stoull(s)) * mult;
  } catch (const std::exception&) {
    return 0;
  }
}

std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return hash_mix(h, bits);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name) {
  if (records_.capacity() == 0) {
    // Reserve once, before the first span, so recording never allocates
    // inside a measured call and the allocation counts stay the
    // program's own.
    records_.reserve(kMaxRecords);
    stack_.reserve(64);
    layers_.reserve(64);
  }
  Open o;
  o.record = -1;
  o.name = name;
  if (records_.size() < kMaxRecords) {
    o.record = static_cast<std::int32_t>(records_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(Record{name, parent, op_, 0.0, 0.0, 0});
  } else {
    ++dropped_;
  }
  stack_.push_back(o);
  const int handle = static_cast<int>(stack_.size()) - 1;
  // Read the counters last, so the tracer's own work is outside.
  stack_.back().allocs0 = allocations();
  stack_.back().t0 = now_s();
  return handle;
}

void Tracer::close(int handle) {
  const double t1 = now_s();
  const std::uint64_t a1 = allocations();
  // Spans close in LIFO order; the handle is the stack depth.
  if (handle != static_cast<int>(stack_.size()) - 1) {
    std::fprintf(stderr, "perfbench: span closed out of order\n");
    std::abort();
  }
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = t1 - o.t0;
  const std::uint64_t allocs = a1 - o.allocs0;
  const double self = std::max(0.0, dur - o.child_s);
  const std::uint64_t allocs_self =
      allocs >= o.child_allocs ? allocs - o.child_allocs : 0;
  if (!stack_.empty()) {
    stack_.back().child_s += dur;
    stack_.back().child_allocs += allocs;
  }
  if (o.record >= 0) {
    Record& r = records_[static_cast<std::size_t>(o.record)];
    r.t0 = o.t0;
    r.t1 = t1;
    r.allocs = allocs_self;
  }
  LayerTotals* lp = nullptr;
  for (auto& [name, totals] : layers_) {
    if (name == o.name) lp = &totals;
  }
  if (lp == nullptr) lp = &layers_.emplace_back(o.name, LayerTotals{}).second;
  LayerTotals& l = *lp;
  ++l.count;
  l.total_s += dur;
  l.self_s += self;
  l.allocs_total += allocs;
  l.allocs_self += allocs_self;
}

const LayerTotals& Tracer::layer(const std::string& name) const {
  static const LayerTotals kNone;
  for (const auto& [n, totals] : layers_) {
    if (name == n) return totals;
  }
  return kNone;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double base = records_.empty() ? 0.0 : records_.front().t0;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"op\": %llu, "
                 "\"self_allocs\": %llu}}",
                 i == 0 ? "" : ",\n", r.name, r.name,
                 (r.t0 - base) * 1e6, (r.t1 - r.t0) * 1e6, i, r.parent,
                 static_cast<unsigned long long>(r.op),
                 static_cast<unsigned long long>(r.allocs));
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\", \"droppedSpans\": %zu, "
                  "\"layerSummary\": {",
               dropped_);
  bool first = true;
  for (const auto& [name, l] : layers_) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_s\": %.9g, "
                 "\"self_s\": %.9g, \"allocs\": %llu, \"self_allocs\": %llu}",
                 first ? "" : ",", name,
                 static_cast<unsigned long long>(l.count), l.total_s,
                 l.self_s, static_cast<unsigned long long>(l.allocs_total),
                 static_cast<unsigned long long>(l.allocs_self));
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

double mean_span_s(const std::string& layer) {
  const LayerTotals& l = tracer().layer(layer);
  return l.count == 0 ? 0.0 : l.total_s / static_cast<double>(l.count);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
