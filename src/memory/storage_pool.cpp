#include "memory/storage_pool.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>

namespace homp::mem {

namespace {
/// calloc hands back fresh pages without writing them.
std::byte* allocate_zeroed(std::size_t bytes) {
  auto* p = static_cast<std::byte*>(std::calloc(bytes, 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

StoragePool::~StoragePool() { trim(); }

StoragePool& StoragePool::shared() {
  static StoragePool* pool = new StoragePool;
  return *pool;
}

std::byte* StoragePool::acquire(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (bytes < kMinPooledBytes) return allocate_zeroed(bytes);
  std::unique_lock<std::mutex> lock(mu_);
  auto hit = cache_.find(bytes);
  if (hit != cache_.end()) {
    std::byte* p = hit->second.back();
    hit->second.pop_back();
    if (hit->second.empty()) cache_.erase(hit);
    cached_ -= bytes;
    live_ += bytes;
    lock.unlock();
    std::memset(p, 0, bytes);
    return p;
  }
  // A miss: make room under the peak by freeing other sizes, largest
  // first, so the pool never grows the process past what it once held.
  while (!cache_.empty() && live_ + cached_ + bytes > peak_) {
    auto largest = std::prev(cache_.end());
    std::free(largest->second.back());
    largest->second.pop_back();
    cached_ -= largest->first;
    if (largest->second.empty()) cache_.erase(largest);
  }
  std::byte* p = allocate_zeroed(bytes);
  live_ += bytes;
  peak_ = std::max(peak_, live_);
  return p;
}

void StoragePool::release(std::byte* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kMinPooledBytes) {
    std::free(p);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  live_ -= bytes;
  try {
    cache_[bytes].push_back(p);
    cached_ += bytes;
  } catch (...) {
    std::free(p);  // no room to remember it: give it back instead
  }
}

void StoragePool::trim() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [bytes, buffers] : cache_) {
    for (std::byte* p : buffers) std::free(p);
  }
  cache_.clear();
  cached_ = 0;
}

std::size_t StoragePool::cached_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_;
}

std::size_t StoragePool::live_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

std::size_t StoragePool::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

}  // namespace homp::mem
