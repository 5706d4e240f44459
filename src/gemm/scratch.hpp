#pragma once

/// \file scratch.hpp
/// Per-thread scratch arena for the GEMM hot paths.
///
/// Every lowp conv/GEMM call used to heap-allocate its working buffers
/// (quantized image, im2col columns, packed panels, accumulator rows).
/// The arena replaces those with bump allocations from thread-local
/// blocks that are retained across calls: once a thread has seen its
/// largest frame, every subsequent frame performs zero heap allocations.
/// `heap_allocations()` counts one arena's block acquisitions and
/// `arena_blocks_acquired()` those of every thread, so tests can assert the
/// steady state (blocks are mapped directly, so operator-new counters do
/// not see them).
///
/// Usage pattern (scoped, stack-like):
///   auto& arena = thread_arena();
///   ScratchScope scope(arena);            // rewinds on destruction
///   uint8_t* buf = arena.alloc<uint8_t>(n);
///
/// Allocations are 64-byte aligned (cache line) and valid until the
/// enclosing ScratchScope unwinds. Blocks are page mappings of their own
/// on POSIX (see scratch.cpp), not malloc chunks. Blocks are chained, never
/// reallocated, so growth does not invalidate live pointers; scopes nest
/// freely.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tincy::gemm {

class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `count` elements of T, 64-byte aligned.
  template <typename T>
  T* alloc(int64_t count) {
    return reinterpret_cast<T*>(
        alloc_bytes(static_cast<size_t>(count) * sizeof(T)));
  }

  /// Number of backing blocks acquired from the heap so far. Constant
  /// across steady-state frames (the zero-allocation property under test).
  int64_t heap_allocations() const { return heap_allocations_; }

  /// Total bytes owned across all blocks.
  size_t capacity() const;

 private:
  friend class ScratchScope;

  struct Block {
    std::byte* data = nullptr;
    size_t size = 0;
  };

  void* alloc_bytes(size_t bytes);

  std::vector<Block> blocks_;
  size_t block_ = 0;   ///< index of the block currently bumped into
  size_t offset_ = 0;  ///< bump offset within blocks_[block_]
  int64_t heap_allocations_ = 0;
};

/// RAII watermark: rewinds the arena to its entry position on destruction.
class ScratchScope {
 public:
  explicit ScratchScope(Arena& arena)
      : arena_(arena), block_(arena.block_), offset_(arena.offset_) {}
  ~ScratchScope() {
    arena_.block_ = block_;
    arena_.offset_ = offset_;
  }
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

 private:
  Arena& arena_;
  size_t block_;
  size_t offset_;
};

/// The calling thread's arena (thread_local; lives for the thread).
Arena& thread_arena();

/// Blocks acquired so far by all arenas of the process, pool workers
/// included. Constant across steady-state frames.
int64_t arena_blocks_acquired();

}  // namespace tincy::gemm
