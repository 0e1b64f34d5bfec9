#include "util/arena.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <cstdio>
#include <unistd.h>
#endif

#include "util/macros.hpp"

namespace graffix {

namespace {

/// Smallest block the pool hands out; anything under this shares the
/// 256-byte class so tiny vectors do not fragment the lists.
constexpr std::size_t kMinClassBytes = 256;
constexpr std::size_t kAlignment = 64;  // cache line

/// Size class = next power of two >= max(bytes, kMinClassBytes).
std::size_t class_bytes(std::size_t bytes) {
  return std::bit_ceil(std::max(bytes, kMinClassBytes));
}

std::size_t class_index(std::size_t bytes) {
  return static_cast<std::size_t>(std::countr_zero(class_bytes(bytes)));
}

}  // namespace

struct ScratchArena::Impl {
  mutable std::mutex mu;
  // Free lists indexed by log2(class size); 64 covers every possible
  // size_t class.
  std::array<std::vector<void*>, 64> free_lists;
  std::size_t outstanding = 0;
  std::size_t peak = 0;
  std::size_t pooled = 0;
  std::uint64_t reuses = 0;
  std::uint64_t allocs = 0;
};

ScratchArena::ScratchArena() : impl_(new Impl) {}

ScratchArena::~ScratchArena() {
  trim();
  delete impl_;
}

ScratchArena& ScratchArena::global() {
  // Deliberately leaked: ArenaVector members of objects with static
  // storage duration may deallocate during exit, after a function-local
  // static pool would already be gone.
  static ScratchArena* arena = new ScratchArena;
  return *arena;
}

void* ScratchArena::acquire(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  const std::size_t cls = class_bytes(bytes);
  const std::size_t idx = class_index(bytes);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto& list = impl_->free_lists[idx];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      impl_->pooled -= cls;
      impl_->outstanding += cls;
      impl_->peak = std::max(impl_->peak, impl_->outstanding);
      ++impl_->reuses;
      return p;
    }
    impl_->outstanding += cls;
    impl_->peak = std::max(impl_->peak, impl_->outstanding);
    ++impl_->allocs;
  }
  // System allocation happens outside the lock; on failure the
  // accounting is rolled back before the exception propagates.
  try {
    return ::operator new(cls, std::align_val_t{kAlignment});
  } catch (...) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->outstanding -= cls;
    throw;
  }
}

void ScratchArena::release(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  const std::size_t cls = class_bytes(bytes);
  const std::size_t idx = class_index(bytes);
  std::lock_guard<std::mutex> lock(impl_->mu);
  GRAFFIX_DCHECK(impl_->outstanding >= cls,
                 "arena release of %zu bytes exceeds outstanding %zu", cls,
                 impl_->outstanding);
  impl_->outstanding -= cls;
  impl_->pooled += cls;
  impl_->free_lists[idx].push_back(p);
}

std::size_t ScratchArena::outstanding_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->outstanding;
}

std::size_t ScratchArena::peak_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->peak;
}

std::size_t ScratchArena::pooled_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->pooled;
}

std::uint64_t ScratchArena::reuse_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->reuses;
}

std::uint64_t ScratchArena::alloc_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->allocs;
}

void ScratchArena::reset_peak() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->peak = impl_->outstanding;
}

void ScratchArena::trim() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (std::size_t idx = 0; idx < impl_->free_lists.size(); ++idx) {
    auto& list = impl_->free_lists[idx];
    for (void* p : list) {
      ::operator delete(p, std::align_val_t{kAlignment});
    }
    impl_->pooled -= list.size() * (std::size_t{1} << idx);
    list.clear();
  }
}

std::size_t arena_peak_bytes() { return ScratchArena::global().peak_bytes(); }
std::size_t arena_outstanding_bytes() {
  return ScratchArena::global().outstanding_bytes();
}
std::size_t arena_pooled_bytes() {
  return ScratchArena::global().pooled_bytes();
}
void arena_reset_peak() { ScratchArena::global().reset_peak(); }

void* map_pages(std::size_t bytes) {
#if defined(__unix__) || defined(__APPLE__)
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
#else
  return ::operator new(bytes);
#endif
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  munmap(p, bytes);
#else
  (void)bytes;
  ::operator delete(p);
#endif
}

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::size_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long vm_pages = 0, rss_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(rss_pages) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
#else
  return peak_rss_bytes();
#endif
}

}  // namespace graffix
