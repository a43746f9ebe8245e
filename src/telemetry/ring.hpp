#pragma once

// Lock-free per-executor-thread trace ring with drop-OLDEST overwrite.
//
// support::SpscRing rejects pushes when full (the newest record would be the
// one lost), which is the wrong policy for telemetry: under saturation the
// interesting records are the most recent ones, and the producer must never
// block or branch on the consumer. TraceRing therefore always overwrites —
// a producer lap simply claims the oldest unharvested slots — and the
// harvest cycle counts what it lost.
//
// Concurrency model: a single producer (the owning executor thread) and a
// single logical consumer (harvests are serialized by TelemetryRecorder's
// harvest mutex). Every slot word is a std::atomic so concurrent
// record/harvest is data-race-free under TSan; per-slot sequence numbers
// (seqlock style, validated around the copy) discard records the producer
// overwrote mid-read instead of surfacing torn traces. Word stores are
// release and word loads acquire (plain moves on x86), so a reader that sees
// any word of a newer lap also sees that lap's odd sequence on its re-check;
// no standalone fence is needed (GCC's TSan does not model fences).

#include <atomic>
#include <cstdint>
#include <memory>

#include "telemetry/telemetry.hpp"

namespace asyncml::telemetry {

/// TaskTrace packed as ring words: ids in 3 words, one word per stage.
inline constexpr std::size_t kTraceWords = 3 + kNumStages;

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  /// Producer side: always succeeds, overwriting the oldest record when the
  /// consumer has fallen a full lap behind. Single-threaded per ring.
  void push(const TaskTrace& trace) {
    const std::uint64_t index = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[index & mask_];
    // Odd sequence marks the slot in-flight; readers that observe it (or a
    // different write index) drop the record rather than report torn data.
    slot.seq.store(2 * index + 1, std::memory_order_relaxed);
    std::uint64_t words[kTraceWords];
    pack(trace, words);
    for (std::size_t w = 0; w < kTraceWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_release);
    }
    slot.seq.store(2 * index + 2, std::memory_order_release);
    head_.store(index + 1, std::memory_order_release);
  }

  struct DrainStats {
    std::size_t drained = 0;    ///< records delivered to the callback
    std::uint64_t dropped = 0;  ///< records overwritten before harvest
  };

  /// Consumer side: deliver every record published since the previous drain,
  /// oldest first. Callers must serialize drains externally (the recorder's
  /// harvest mutex does).
  template <typename Fn>
  DrainStats drain(Fn&& fn) {
    DrainStats stats;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t start = next_;
    if (head > capacity_ && head - capacity_ > start) {
      // The producer lapped us: everything below head - capacity is gone.
      stats.dropped += (head - capacity_) - start;
      start = head - capacity_;
    }
    for (std::uint64_t i = start; i < head; ++i) {
      Slot& slot = slots_[i & mask_];
      const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
      if (seq_before != 2 * i + 2) {
        stats.dropped += 1;  // overwritten (or in-flight) after the head read
        continue;
      }
      std::uint64_t words[kTraceWords];
      for (std::size_t w = 0; w < kTraceWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_acquire);
      }
      if (slot.seq.load(std::memory_order_relaxed) != seq_before) {
        stats.dropped += 1;  // producer lapped into the slot mid-copy
        continue;
      }
      fn(unpack(words));
      stats.drained += 1;
    }
    next_ = head;
    return stats;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kTraceWords]{};
  };

  static void pack(const TaskTrace& trace, std::uint64_t* words) {
    words[0] =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(trace.worker))
         << 32) |
        static_cast<std::uint32_t>(trace.partition);
    words[1] = trace.seq;
    words[2] = trace.model_version;
    for (std::size_t s = 0; s < kNumStages; ++s) {
      words[3 + s] = trace.stage_ns[s];
    }
  }

  static TaskTrace unpack(const std::uint64_t* words) {
    TaskTrace trace;
    trace.worker = static_cast<std::int32_t>(words[0] >> 32);
    trace.partition =
        static_cast<std::int32_t>(static_cast<std::uint32_t>(words[0]));
    trace.seq = words[1];
    trace.model_version = words[2];
    for (std::size_t s = 0; s < kNumStages; ++s) {
      trace.stage_ns[s] = words[3 + s];
    }
    return trace;
  }

  std::size_t capacity_ = 0;
  std::uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::uint64_t next_ = 0;  ///< consumer cursor, guarded by the harvest mutex
};

}  // namespace asyncml::telemetry
