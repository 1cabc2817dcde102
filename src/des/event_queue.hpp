// event_queue.hpp — two-level calendar/bucket event queue for the DES core.
//
// The kernel previously ordered events with a binary-heap
// std::priority_queue: O(log n) comparisons per push/pop against a
// million-entry heap, each touching a 40+-byte entry with an embedded
// std::function.  A 110k-core Global Pool run dispatches tens of millions
// of events, most of them coroutine resumptions clustered tightly in time —
// exactly the access pattern a calendar queue serves in amortised O(1).
//
// Structure (three tiers, nearest first):
//
//   batch_    the run of items sharing the earliest timestamp, sorted by
//             sequence number.  pop() walks it; a push at exactly the batch
//             timestamp appends (sequence numbers are monotone, so order is
//             preserved).  This drains same-timestamp bursts — event
//             triggers, zero-delay resumes — in one pass with no heap ops.
//   buckets_  a window of `bucket_count_` buckets of `width_` simulated
//             seconds starting at `win_start_`.  A push lands in bucket
//             (t - win_start_) / width_; a bucket ahead of the cursor takes
//             plain appends and is sorted once, from its drain offset, when
//             the window cursor reaches it.
//   overflow_ everything past the window.  When the window drains, the
//             window is rebuilt over the overflow with a width adapted to
//             the observed density (~2 items per bucket, power-of-two
//             bucket counts in [64, 65536]).
//
// Live-bucket invariant: the bucket under the cursor (the one being
// drained) stays sorted from its drain offset at all times, so it is never
// re-sorted.  A late arrival into it — a bandwidth re-solve, a 60-s poll,
// any short delay that lands before the bucket's last item — goes to
// `late_`, a binary min-heap that belongs to the live bucket, and the batch
// builder merges the sorted run and the heap by (time, seq).  Per-insert
// cost is therefore O(log k) in the k late arrivals pending: a
// million-event bucket degrades to a binary heap, never to a quadratic
// re-sort.  The heap was chosen over splitting the bucket or rebuilding the
// window on occupancy because it needs no re-partition pass (whose cost a
// density swing could trigger over and over) and leaves in-order pushes,
// the common case, plain appends.
//
// Determinism: the queue realises the exact total order (time, seq) with
// seq assigned in push order — the same contract the heap implemented — so
// every golden-metrics file and trace replay stays bit-identical.
//
// Item payloads are 32 bytes: the common case (resume a coroutine) is an
// inline handle; raw callbacks live in an internal free-listed slab of
// std::function so sorting moves small PODs, not type-erased closures.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace lobster::des {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  static constexpr std::uint32_t kNoFn = 0xFFFFFFFFu;

  struct Item {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> handle{};  ///< non-null: resume this
    std::uint32_t fn = kNoFn;          ///< else: index into the fn slab
  };

  /// Enqueue a raw callback at absolute time `t` (>= the last popped time).
  void push_fn(double t, Callback fn);
  /// Enqueue a coroutine resumption at absolute time `t` (the hot path — no
  /// allocation, no type erasure).
  void push_resume(double t, std::coroutine_handle<> h);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending item; +infinity when empty.  May
  /// sort a bucket / rebuild the window (amortised against the pops that
  /// must follow).  A peek commits nothing: a later push that lands before
  /// the peeked time still pops first.
  double next_time();

  /// Remove and return the earliest item by (time, seq).  Returns false
  /// when the queue is empty.  For fn items the caller runs take_fn().
  bool pop_next(Item& out);

  /// Move callback `idx` out of the slab and recycle the slot.  Call before
  /// invoking, so the callback may freely push new events.
  Callback take_fn(std::uint32_t idx);

  /// Cumulative reordering work: items passed to bucket sorts plus
  /// late-heap pushes and pops.  Linear in the events pushed when the
  /// live-bucket invariant holds; tests use it as an operation budget.
  [[nodiscard]] std::uint64_t reorder_work() const { return reorder_work_; }

 private:
  struct Bucket {
    std::vector<Item> items;
    std::size_t offset = 0;  ///< items before this are drained
    bool sorted = true;
    [[nodiscard]] bool drained() const { return offset >= items.size(); }
  };

  static bool item_before(const Item& a, const Item& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  /// Heap order for late_: std::push_heap/pop_heap keep a max-heap, so the
  /// reversed comparison puts the earliest (time, seq) at the front.
  static bool item_after(const Item& a, const Item& b) {
    return item_before(b, a);
  }

  void insert(Item item);
  /// A push earlier than a peeked, not yet popped batch: hand the batch
  /// back to the front of its bucket so the earlier item can precede it.
  void unbatch();
  /// Make batch_ hold the next same-timestamp run; false when empty.
  bool ensure_batch();
  /// ensure_batch's path when late_ is non-empty: fill batch_ by merging
  /// the cursor bucket's sorted run with late_.  Out of line so the plain
  /// drain path in ensure_batch stays small.
  void merge_late_batch(Bucket& b);
  /// Re-partition overflow_ into a fresh window sized to its density.
  void rebuild_window();

  // Tier 0: active same-timestamp batch.
  std::vector<Item> batch_;
  std::size_t batch_pos_ = 0;
  double batch_time_ = 0.0;
  bool batch_active_ = false;

  // Tier 1: bucket window [win_start_, win_start_ + bucket_count_ * width_).
  std::vector<Bucket> buckets_;
  double win_start_ = 0.0;
  double width_ = 1.0;
  std::size_t bucket_count_ = 0;
  std::size_t cursor_ = 0;  ///< first possibly non-drained bucket
  /// Min-heap (item_after) of late arrivals into the live bucket.
  /// Non-empty only while its items belong to buckets_[cursor_].
  std::vector<Item> late_;

  // Tier 2: items beyond the window.
  std::vector<Item> overflow_;

  // Callback slab: push_fn stores here, take_fn recycles.
  std::vector<Callback> fn_slab_;
  std::vector<std::uint32_t> fn_free_;

  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::uint64_t reorder_work_ = 0;
};

}  // namespace lobster::des
