// Determinism kit for the retry-storm simulator (docs/STORM.md).
//
// Two small pieces: a seeded splittable RNG (splitmix64) so every edge draws
// jitter from its own stream regardless of event interleaving, and an event
// queue that pops in time order, same instant in push order. Virtual time is
// the time of the event being handled; nothing here reads wall time, so a
// storm run is a pure function of (profiles, options, seed).

#ifndef WASABI_SRC_STORM_SIM_H_
#define WASABI_SRC_STORM_SIM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wasabi {

// splitmix64 (Steele et al., "Fast splittable pseudorandom number
// generators"): tiny state, full 64-bit period per stream, and cheap
// splitting — hashing a salt into the current state yields an independent
// child stream. Each storm edge gets its own split so adding or removing an
// edge never perturbs another edge's jitter draws.
class SimRng {
 public:
  explicit SimRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Independent child stream: mixes the salt through one splitmix step so
  // Split(1) and Split(2) diverge even from a zero seed.
  SimRng Split(uint64_t salt) const {
    SimRng child(state_ ^ (salt + 0x9e3779b97f4a7c15ull));
    child.Next();
    return child;
  }

  // Uniform in [lo, hi], inclusive. hi < lo yields lo.
  int64_t NextInt(int64_t lo, int64_t hi) {
    if (hi <= lo) {
      return lo;
    }
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }

 private:
  uint64_t state_;
};

// Event queue popping in time order, same instant in push order: the
// tiebreak that makes the simulation insensitive to queue internals.
//
// A timing wheel. One-millisecond FIFO buckets cover the kSpanMs instants
// from the cursor (the instant last popped); an event further out waits in a
// (at_ms, seq) min-heap. Heap events move into their bucket, in seq order,
// as soon as the cursor comes within kSpanMs of them; a direct push reaches
// that bucket only afterwards, so every bucket holds its events in push
// order. When the wheel runs empty the cursor jumps to the heap's minimum.
// Push and pop are O(1) for near events, plus one cursor step per simulated
// millisecond. Buckets are lists linked by index through one slab of
// entries with a free list; the links sit in their own array, so walking
// them stays in cache. Memory is bounded by the pending events plus the
// bucket heads, whatever the simulated duration.
//
// Precondition: no push lands before the cursor (the sim's delays are all
// >= 1). Such a push is clamped to the cursor and pops after the events
// already queued for that instant.
template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    int64_t at_ms = 0;
    uint64_t seq = 0;
    Payload payload;
  };

  void Push(int64_t at_ms, Payload payload) {
    at_ms = std::max(at_ms, cursor_);
    if (at_ms - cursor_ < kSpanMs) {
      Append(Entry{at_ms, next_seq_++, std::move(payload)});
    } else {
      far_.push_back(Entry{at_ms, next_seq_++, std::move(payload)});
      std::push_heap(far_.begin(), far_.end(), Later);
    }
  }

  bool empty() const { return near_ == 0 && far_.empty(); }
  size_t size() const { return near_ + far_.size(); }

  // Precondition: !empty().
  Entry PopMin() {
    if (near_ == 0) {
      cursor_ = far_.front().at_ms;
      Migrate();
    }
    while (buckets_[Slot(cursor_)].head == kNil) {
      ++cursor_;
      Migrate();
    }
    Bucket& bucket = buckets_[Slot(cursor_)];
    const uint32_t index = bucket.head;
    bucket.head = next_[index];
    next_[index] = free_;
    free_ = index;
    --near_;
    return std::move(slab_[index]);
  }

 private:
  static constexpr int64_t kSpanMs = 4096;  // Power of two: Slot() masks.
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  static size_t Slot(int64_t at_ms) { return static_cast<size_t>(at_ms & (kSpanMs - 1)); }

  // Heap order: std::push_heap keeps the greatest on top, so "later" first.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.at_ms != b.at_ms) {
      return a.at_ms > b.at_ms;
    }
    return a.seq > b.seq;
  }

  // Appends to the tail of the entry's bucket; at_ms is within the span.
  void Append(Entry&& entry) {
    Bucket& bucket = buckets_[Slot(entry.at_ms)];
    uint32_t index = free_;
    if (index != kNil) {
      free_ = next_[index];
      slab_[index] = std::move(entry);
      next_[index] = kNil;
    } else {
      index = static_cast<uint32_t>(slab_.size());
      slab_.push_back(std::move(entry));
      next_.push_back(kNil);
    }
    if (bucket.head == kNil) {
      bucket.head = index;
    } else {
      next_[bucket.tail] = index;
    }
    bucket.tail = index;
    ++near_;
  }

  // Moves every heap event now within the span into its bucket.
  void Migrate() {
    while (!far_.empty() && far_.front().at_ms - cursor_ < kSpanMs) {
      std::pop_heap(far_.begin(), far_.end(), Later);
      Append(std::move(far_.back()));
      far_.pop_back();
    }
  }

  std::vector<Entry> slab_;
  std::vector<uint32_t> next_;  // Bucket or free-list link per slab entry.
  uint32_t free_ = kNil;
  std::vector<Bucket> buckets_ = std::vector<Bucket>(kSpanMs);
  std::vector<Entry> far_;  // Min-heap under Later.
  int64_t cursor_ = 0;
  size_t near_ = 0;  // Events in the buckets.
  uint64_t next_seq_ = 0;
};

}  // namespace wasabi

#endif  // WASABI_SRC_STORM_SIM_H_
