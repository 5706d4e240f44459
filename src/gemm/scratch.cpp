#include "gemm/scratch.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__unix__)
#include <sys/mman.h>
#endif

namespace tincy::gemm {

namespace {

constexpr size_t kAlignment = 64;
constexpr size_t kMinBlockBytes = size_t{1} << 16;  // 64 KiB floor

std::atomic<int64_t> g_blocks_acquired{0};

size_t align_up(size_t n) {
  return (n + kAlignment - 1) & ~(kAlignment - 1);
}

// Blocks live for the thread, so on POSIX they are mappings of their own
// rather than malloc chunks: a long-lived block carved from a worker's
// malloc heap pins that heap's top, and everything the worker frees below
// it stays resident (measured on the 4-worker serve4 benchmark: ~1.2 MB
// of peak RSS).
std::byte* acquire_block(size_t size) {
#if defined(__unix__)
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
#else
  return static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{kAlignment}));
#endif
}

void release_block(std::byte* data, size_t size) {
#if defined(__unix__)
  munmap(data, size);
#else
  (void)size;
  ::operator delete(data, std::align_val_t{kAlignment});
#endif
}

}  // namespace

Arena::~Arena() {
  for (auto& b : blocks_) release_block(b.data, b.size);
}

size_t Arena::capacity() const {
  size_t total = 0;
  for (const auto& b : blocks_) total += b.size;
  return total;
}

void* Arena::alloc_bytes(size_t bytes) {
  bytes = align_up(std::max<size_t>(bytes, 1));
  // Advance through retained blocks until one fits; the vector of blocks
  // only changes when a frame larger than any before arrives.
  while (block_ < blocks_.size() && offset_ + bytes > blocks_[block_].size) {
    ++block_;
    offset_ = 0;
  }
  if (block_ == blocks_.size()) {
    const size_t prev = blocks_.empty() ? 0 : blocks_.back().size;
    const size_t size = std::max({bytes, kMinBlockBytes, prev * 2});
    Block b;
    b.data = acquire_block(size);
    b.size = size;
    blocks_.push_back(b);
    offset_ = 0;
    ++heap_allocations_;
    g_blocks_acquired.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = blocks_[block_].data + offset_;
  offset_ += bytes;
  return p;
}

Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

int64_t arena_blocks_acquired() {
  return g_blocks_acquired.load(std::memory_order_relaxed);
}

}  // namespace tincy::gemm
