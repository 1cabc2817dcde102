#include "des/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace lobster::des {

void EventQueue::push_fn(double t, Callback fn) {
  std::uint32_t idx;
  if (!fn_free_.empty()) {
    idx = fn_free_.back();
    fn_free_.pop_back();
    fn_slab_[idx] = std::move(fn);
  } else {
    idx = static_cast<std::uint32_t>(fn_slab_.size());
    fn_slab_.push_back(std::move(fn));
  }
  Item it;
  it.time = t;
  it.seq = seq_++;
  it.fn = idx;
  insert(it);
  ++size_;
}

void EventQueue::push_resume(double t, std::coroutine_handle<> h) {
  Item it;
  it.time = t;
  it.seq = seq_++;
  it.handle = h;
  insert(it);
  ++size_;
}

EventQueue::Callback EventQueue::take_fn(std::uint32_t idx) {
  assert(idx < fn_slab_.size());
  Callback fn = std::move(fn_slab_[idx]);
  fn_slab_[idx] = nullptr;
  fn_free_.push_back(idx);
  return fn;
}

void EventQueue::insert(Item item) {
  if (batch_active_) {
    // Same-timestamp pushes while a batch drains join the batch directly:
    // seq is monotone, so appending preserves the sorted (time, seq)
    // order.  This is the zero-delay resume fast path (event triggers,
    // queue wakes).
    if (item.time == batch_time_) {
      batch_.push_back(item);
      return;
    }
    if (item.time < batch_time_) unbatch();
  }
  if (bucket_count_ == 0) {  // no window yet: first ensure_batch builds one
    overflow_.push_back(item);
    return;
  }
  const double rel = item.time - win_start_;
  std::size_t idx =
      rel <= 0.0 ? 0 : static_cast<std::size_t>(rel / width_);
  if (idx >= bucket_count_) {
    overflow_.push_back(item);
    return;
  }
  if (idx < cursor_) {
    // The cursor steps back (only after a peek moved it ahead of a later
    // push).  late_ belongs to the old cursor bucket: fold it back in, to
    // be sorted when the cursor returns there.
    if (!late_.empty()) {
      Bucket& old = buckets_[cursor_];
      old.items.insert(old.items.end(), late_.begin(), late_.end());
      old.sorted = false;
      late_.clear();
    }
    cursor_ = idx;
  }
  Bucket& b = buckets_[idx];
  if (!b.items.empty() && item_before(item, b.items.back())) {
    if (idx == cursor_) {
      // A late arrival into the live bucket: the bucket stays sorted and
      // the item waits in late_ for the batch builder's merge.
      late_.push_back(item);
      std::push_heap(late_.begin(), late_.end(), item_after);
      ++reorder_work_;
      return;
    }
    b.sorted = false;  // sorted once, when the cursor reaches it
  }
  b.items.push_back(item);
}

void EventQueue::unbatch() {
  // Legal only before the first pop of the batch: a push may not precede
  // the last popped time.
  assert(batch_pos_ == 0 && "push earlier than the last popped event");
  // Every batch item precedes everything left in the bucket and in late_,
  // so the bucket stays sorted with the batch back at its front.
  Bucket& b = buckets_[cursor_];
  b.items.insert(b.items.begin() + static_cast<std::ptrdiff_t>(b.offset),
                 batch_.begin(), batch_.end());
  batch_.clear();
  batch_active_ = false;
}

void EventQueue::merge_late_batch(Bucket& b) {
  // Merge the sorted run with the late heap by (time, seq).
  batch_time_ = late_.front().time;
  if (!b.drained() && b.items[b.offset].time < batch_time_)
    batch_time_ = b.items[b.offset].time;
  for (;;) {
    const bool run = !b.drained() && b.items[b.offset].time == batch_time_;
    const bool late = !late_.empty() && late_.front().time == batch_time_;
    if (late && (!run || late_.front().seq < b.items[b.offset].seq)) {
      std::pop_heap(late_.begin(), late_.end(), item_after);
      batch_.push_back(late_.back());
      late_.pop_back();
      ++reorder_work_;
    } else if (run) {
      batch_.push_back(b.items[b.offset++]);
    } else {
      break;
    }
  }
}

bool EventQueue::ensure_batch() {
  if (batch_pos_ < batch_.size()) return true;
  batch_.clear();
  batch_pos_ = 0;
  batch_active_ = false;
  for (;;) {
    while (cursor_ < bucket_count_ && buckets_[cursor_].drained() &&
           late_.empty()) {
      Bucket& b = buckets_[cursor_];
      b.items.clear();
      b.offset = 0;
      b.sorted = true;
      ++cursor_;
    }
    if (cursor_ >= bucket_count_) {
      if (overflow_.empty()) return false;
      rebuild_window();
      continue;
    }
    Bucket& b = buckets_[cursor_];
    if (!b.sorted) {
      reorder_work_ += b.items.size() - b.offset;
      std::sort(b.items.begin() + static_cast<std::ptrdiff_t>(b.offset),
                b.items.end(), item_before);
      b.sorted = true;
    }
    if (late_.empty()) {
      batch_time_ = b.items[b.offset].time;
      while (b.offset < b.items.size() &&
             b.items[b.offset].time == batch_time_)
        batch_.push_back(b.items[b.offset++]);
    } else {
      merge_late_batch(b);
    }
    if (b.drained()) {
      b.items.clear();
      b.offset = 0;
    }
    batch_active_ = true;
    return true;
  }
}

void EventQueue::rebuild_window() {
  assert(!overflow_.empty());
  double t_min = overflow_.front().time;
  double t_max = t_min;
  for (const Item& it : overflow_) {
    t_min = std::min(t_min, it.time);
    t_max = std::max(t_max, it.time);
  }
  // Size the window to the observed density: ~2 items per bucket, bucket
  // counts a power of two in [64, 65536].
  std::size_t nb = 64;
  while (nb < overflow_.size() / 2 && nb < 65536) nb <<= 1;
  const double span = t_max - t_min;
  win_start_ = t_min;
  width_ = span > 0.0 ? span / static_cast<double>(nb) : 1.0;
  bucket_count_ = nb;
  cursor_ = 0;
  buckets_.resize(nb);
  for (Bucket& b : buckets_) {
    b.items.clear();
    b.offset = 0;
    b.sorted = true;
  }
  std::vector<Item> keep;
  for (const Item& it : overflow_) {
    const double rel = it.time - win_start_;
    const std::size_t idx =
        rel <= 0.0 ? 0 : static_cast<std::size_t>(rel / width_);
    if (idx >= nb) {  // t_max can round to idx == nb; recycle next rebuild
      keep.push_back(it);
      continue;
    }
    Bucket& b = buckets_[idx];
    if (!b.items.empty() && item_before(it, b.items.back()))
      b.sorted = false;
    b.items.push_back(it);
  }
  overflow_ = std::move(keep);
}

double EventQueue::next_time() {
  if (!ensure_batch()) return std::numeric_limits<double>::infinity();
  return batch_[batch_pos_].time;
}

bool EventQueue::pop_next(Item& out) {
  if (!ensure_batch()) return false;
  out = batch_[batch_pos_++];
  --size_;
  return true;
}

}  // namespace lobster::des
