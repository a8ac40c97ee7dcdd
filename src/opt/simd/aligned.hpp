// 32-byte-aligned vector storage for the kernel-read CSR arenas.
//
// The kernels use unaligned loads, so alignment is a performance courtesy
// rather than a correctness requirement — but handing them cacheline-friendly
// 32-byte-aligned rows keeps split loads off the hot path and makes the
// layout contract explicit in the member types.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace hipo::opt::simd {

inline constexpr std::size_t kKernelAlignment = 32;

template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kKernelAlignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kKernelAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// std::vector with kernel-aligned storage.
template <typename T>
using avec = std::vector<T, AlignedAllocator<T>>;

}  // namespace hipo::opt::simd
