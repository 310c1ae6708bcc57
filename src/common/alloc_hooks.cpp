// Counting operator new/delete replacements (soc_alloc_hooks library).
//
// Linked only into binaries that report allocation counts (perfbench's
// socperf_traced).  Under AddressSanitizer & friends the sanitizer
// runtime must own the allocator, so the hooks compile away and
// allocation_count() reads 0.
#include <cstdlib>
#include <new>

#include "common/alloc_stats.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SOC_ALLOC_HOOKS_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SOC_ALLOC_HOOKS_DISABLED 1
#endif
#endif

#ifndef SOC_ALLOC_HOOKS_DISABLED

namespace {

void* counted_alloc(std::size_t size) {
  soc::detail::count_allocation();
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  soc::detail::count_allocation();
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  size = (size + a - 1) / a * a;
  if (size == 0) size = a;
  void* p = std::aligned_alloc(a, size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // SOC_ALLOC_HOOKS_DISABLED
