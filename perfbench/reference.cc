#include "perfbench/reference.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <utility>

namespace perfbench {

namespace {

constexpr int kSteps = 60'000;
constexpr std::size_t kLive = 16'384;         // events alive at once
constexpr std::size_t kSlots = 2 * kLive;     // hash slots, a power of 2
constexpr std::size_t kStateWords = 1 << 19;  // 4 MiB of per-node state
constexpr std::uint64_t kEmpty = 0;

using Event = std::pair<std::uint64_t, std::uint64_t>;  // (at, id)
struct Slot {
  std::uint64_t id = kEmpty;
  std::uint32_t object = 0;
};
struct Object {
  std::uint64_t payload[8] = {};
};

std::uint64_t Next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Value-initializes `count` objects of type T at `at` and advances `at`
/// past them.
template <typename T>
T* Carve(char*& at, std::size_t count) {
  T* first = new (at) T[count]();
  at += sizeof(T) * count;
  return first;
}

/// All memory one pass touches, mapped and faulted in before the clock
/// starts and unmapped after it, outside malloc: the pass measures caches
/// and memory, not the allocator or page faults, and leaves neither the
/// simulator's heap nor its peak RSS any different.
class Arena {
 public:
  Arena() {
    // Carved in order of decreasing alignment.
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    base_ = p;
    char* at = static_cast<char*>(p);
    heap = Carve<Event>(at, kLive + 1);
    slots = Carve<Slot>(at, kSlots);
    objects = Carve<Object>(at, kLive + 1);
    state = Carve<std::uint64_t>(at, kStateWords);
    free_objects = Carve<std::uint32_t>(at, kLive + 1);
    std::fill(state, state + kStateWords, 1);
    for (std::uint32_t i = 0; i <= kLive; ++i) free_objects[i] = i;
  }
  ~Arena() { munmap(base_, kBytes); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Linear probing: the slot holding `id`, or the empty slot it would
  /// take.
  std::size_t Find(std::uint64_t id) const {
    std::size_t i = id & (kSlots - 1);
    while (slots[i].id != id && slots[i].id != kEmpty) {
      i = (i + 1) & (kSlots - 1);
    }
    return i;
  }

  /// Backward-shift deletion, so probing needs no tombstones.
  void Erase(std::size_t i) {
    for (std::size_t j = i;;) {
      slots[i].id = kEmpty;
      while (true) {
        j = (j + 1) & (kSlots - 1);
        if (slots[j].id == kEmpty) return;
        const std::size_t home = slots[j].id & (kSlots - 1);
        const bool stays = i <= j ? (i < home && home <= j)
                                  : (i < home || home <= j);
        if (!stays) break;
      }
      slots[i] = slots[j];
      i = j;
    }
  }

  Event* heap = nullptr;
  std::size_t heap_size = 0;
  Slot* slots = nullptr;
  Object* objects = nullptr;
  std::uint64_t* state = nullptr;
  std::uint32_t* free_objects = nullptr;
  std::size_t free_count = kLive + 1;

 private:
  static constexpr std::size_t kBytes =
      sizeof(Event) * (kLive + 1) + sizeof(Slot) * kSlots +
      sizeof(Object) * (kLive + 1) + sizeof(std::uint64_t) * kStateWords +
      sizeof(std::uint32_t) * (kLive + 1);

  void* base_ = nullptr;
};

}  // namespace

double ReferenceSeconds() {
  Arena a;
  const std::greater<> later;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t now = 0;
  std::uint64_t sum = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int step = 0; step < kSteps; ++step) {
    if (a.heap_size >= kLive) {
      // Fire the earliest event: find its object, touch scattered state,
      // retire the object.
      std::pop_heap(a.heap, a.heap + a.heap_size, later);
      const auto [at, id] = a.heap[--a.heap_size];
      now = at;
      const std::size_t slot = a.Find(id);
      if (a.slots[slot].id == id) {
        const std::uint32_t obj = a.slots[slot].object;
        sum += a.objects[obj].payload[at & 7];
        a.free_objects[a.free_count++] = obj;
        a.Erase(slot);
      }
      for (int k = 0; k < 4; ++k) {
        sum += ++a.state[Next(x) % kStateWords];
      }
    }
    // Schedule a new event with a fresh object.
    const std::uint64_t id = Next(x) | 1;  // never kEmpty
    const std::uint32_t obj = a.free_objects[--a.free_count];
    a.objects[obj].payload[id & 7] = sum;
    a.slots[a.Find(id)] = {id, obj};
    a.heap[a.heap_size++] = {now + 1 + id % 100'000, id};
    std::push_heap(a.heap, a.heap + a.heap_size, later);
  }
  const auto end = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = sum;
  (void)sink;
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace perfbench
