#ifndef HOMP_MEMORY_STORAGE_POOL_H
#define HOMP_MEMORY_STORAGE_POOL_H

/// \file storage_pool.h
/// Recycled device storage for materialized mappings.
///
/// Every offload materializes its device mappings afresh and frees them
/// when it ends. A buffer of a few MiB comes from the C library as fresh
/// pages, so the first write to each page faults into the kernel, and
/// whether a later offload gets the old pages back instead depends on the
/// allocator's heap history. On a 4-vCPU x86-64 host the same gpu4 axpy
/// offload over 2^27 doubles (100 chunk buffers of 21 MiB) took 2.6-3.0 s
/// when its 2 GiB of device storage faulted in and 1.0-1.2 s when it did
/// not, from one call to the next.
///
/// The shared pool keeps released buffers of at least kMinPooledBytes
/// and hands one back, zeroed, to the next request of the same size, so
/// a repeated offload touches no fresh page and costs the same every
/// time. It never holds more than the process already held: live plus
/// cached pooled bytes stay at or below the most pooled storage ever live
/// at once. A request the cache cannot serve first frees cached buffers
/// of other sizes, largest first, until the new buffer fits under that
/// mark. trim() frees every cached buffer.

#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

namespace homp::mem {

class StoragePool {
 public:
  /// Smaller buffers are freed on release, not cached. A fresh one costs
  /// at most 1024 page faults, and caching it would hold memory that the
  /// C library's heap reuses for everything else: caching buffers from
  /// 1 MiB up raised the fuzz corpus's peak RSS from 8.6 to 10.4 MB.
  static constexpr std::size_t kMinPooledBytes = std::size_t{4} << 20;

  StoragePool() = default;
  ~StoragePool();
  StoragePool(const StoragePool&) = delete;
  StoragePool& operator=(const StoragePool&) = delete;

  /// The process-wide pool behind Storage. Never destroyed, so storage
  /// released during static destruction still has a pool to return to.
  static StoragePool& shared();

  /// `bytes` zeroed bytes (nullptr for 0). Throws std::bad_alloc.
  std::byte* acquire(std::size_t bytes);

  /// Give back a buffer from acquire() of the same `bytes`.
  void release(std::byte* p, std::size_t bytes) noexcept;

  /// Free every cached buffer.
  void trim() noexcept;

  std::size_t cached_bytes() const;
  std::size_t live_bytes() const;  ///< pooled-size buffers acquired, not released
  std::size_t peak_bytes() const;  ///< most pooled-size bytes ever live at once

 private:
  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<std::byte*>> cache_;  ///< by exact size
  std::size_t cached_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
};

/// Zero-initialized bytes from StoragePool::shared(), returned to it on
/// destruction. Move-only.
class Storage {
 public:
  Storage() = default;
  explicit Storage(std::size_t bytes)
      : data_(StoragePool::shared().acquire(bytes)), size_(bytes) {}
  ~Storage() { StoragePool::shared().release(data_, size_); }

  Storage(Storage&& o) noexcept : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  Storage& operator=(Storage&& o) noexcept {
    if (this != &o) {
      StoragePool::shared().release(data_, size_);
      data_ = o.data_;
      size_ = o.size_;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  std::byte* data() noexcept { return data_; }
  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace homp::mem

#endif  // HOMP_MEMORY_STORAGE_POOL_H
