// Recycled coroutine frames for metasim::Process.
//
// A simulated thread calls subroutine coroutines per message (send, enqueue,
// outcome handling), and each call allocates a frame. FramePool keeps freed
// frames on a thread-local free list per size class (16-byte steps up to
// kMaxPooled bytes), so a call reuses the frame its predecessor of the same
// size class freed instead of going through malloc. Larger frames go to the
// global allocator. A thread's lists only grow to its peak of live frames
// per class. They go back to the global allocator when an Engine is torn
// down (so one run's frames do not stay reserved through the next run's
// setup) and when the thread exits; a frame freed after that goes
// straight back to it.
//
// Under AddressSanitizer a free frame is poisoned, and so is the tail of a
// live frame's size class beyond the frame's own size, so a use after free
// or an overrun still reports.
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define CAGVT_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAGVT_FRAME_POOL_ASAN 1
#endif
#endif

#ifdef CAGVT_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cagvt::metasim {

class FramePool {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxPooled = 2048;

  static void* allocate(std::size_t size) {
    if (size > kMaxPooled) return ::operator new(size);
    const std::size_t cls = class_of(size);
    FreeFrame*& head = lists_.heads[cls];
    if (head == nullptr || lists_.dead) {
      if (!lists_.dead) (void)&reaper_;  // registers the exit-time release
      void* fresh = ::operator new(bytes_of(cls));
      poison(static_cast<char*>(fresh) + size, bytes_of(cls) - size);
      return fresh;
    }
    FreeFrame* frame = head;
    unpoison(frame, size < sizeof(FreeFrame) ? sizeof(FreeFrame) : size);
    head = frame->next;
    return frame;
  }

  static void deallocate(void* p, std::size_t size) noexcept {
    if (size > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    const std::size_t cls = class_of(size);
    if (lists_.dead) {
      unpoison(p, bytes_of(cls));
      ::operator delete(p);
      return;
    }
    unpoison(p, sizeof(FreeFrame));
    lists_.heads[cls] = ::new (p) FreeFrame{lists_.heads[cls]};
    poison(p, bytes_of(cls));
  }

  /// Hand this thread's free frames back to the global allocator.
  static void release() noexcept {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      while (FreeFrame* frame = lists_.heads[cls]) {
        unpoison(frame, bytes_of(cls));
        lists_.heads[cls] = frame->next;
        ::operator delete(frame);
      }
    }
  }

 private:
  struct FreeFrame {
    FreeFrame* next;
  };
  static constexpr std::size_t kClasses = kMaxPooled / kGranule;

  static constexpr std::size_t class_of(std::size_t size) {
    return size == 0 ? 0 : (size - 1) / kGranule;
  }
  static constexpr std::size_t bytes_of(std::size_t cls) { return (cls + 1) * kGranule; }

  /// Trivially destructible, so it stays readable through thread exit.
  struct Lists {
    FreeFrame* heads[kClasses];
    bool dead;
  };
  /// Hands every listed frame back at thread exit.
  struct Reaper {
    ~Reaper() {
      release();
      lists_.dead = true;
    }
  };

  static void poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef CAGVT_FRAME_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }
  static void unpoison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef CAGVT_FRAME_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
  }

  static inline constinit thread_local Lists lists_{};
  static inline thread_local Reaper reaper_;
};

}  // namespace cagvt::metasim
