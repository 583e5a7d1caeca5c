// Receive queues for RxPolicy::kOnePerStep: InboxBuf, one per node, in
// the stepped engine, and InboxSlab, one per shard, in the sharded engine.
//
// InboxBuf is a vector-backed FIFO with a consumed-prefix index:
// push_back appends, pop_front bumps the head, and the buffer compacts
// only when fully drained or when the dead prefix dominates.  Compared
// with a std::deque<Message>, pushes never allocate a chunk after warm-up
// (the vector's capacity is recycled across steps), and the storage is
// contiguous, which the stepped engine relies on to canonically sort each
// step's newly arrived tail (rx_order_before) with std::sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "proto/message.hpp"

namespace cg {

class InboxBuf {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }

  void push_back(const Message& m) { buf_.push_back(m); }

  const Message& front() const {
    CG_CHECK(!empty());
    return buf_[head_];
  }

  void pop_front() {
    CG_CHECK(!empty());
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Pointer to the element `offset` positions past the front; valid until
  /// the next push/pop.  Used with size() to sort the newly arrived tail.
  Message* at(std::size_t offset) {
    CG_CHECK(head_ + offset <= buf_.size());
    return buf_.data() + head_ + offset;
  }
  Message* end() { return buf_.data() + buf_.size(); }

  /// Reset for reuse.  Capacity is normally recycled across runs (the
  /// trial-farm steady state performs zero allocations), but a one-off
  /// huge run must not pin its slab for the rest of the farm: above the
  /// high-water mark the backing storage is released.
  void clear() {
    if (buf_.capacity() > kHighWater) {
      std::vector<Message>().swap(buf_);
    } else {
      buf_.clear();
    }
    head_ = 0;
  }

  std::size_t capacity() const { return buf_.capacity(); }

  /// Slab-release threshold for clear(), in messages (see clear()).
  static constexpr std::size_t kHighWater = 4096;

 private:
  std::vector<Message> buf_;
  std::size_t head_ = 0;  // consumed prefix
};

/// Flat slab-backed inbox for a SHARD of nodes (RxPolicy::kOnePerStep in
/// the sharded engine): one entry arena plus an intrusive FIFO per local
/// node.  Compared to a vector-of-InboxBuf it needs no per-node heap
/// allocation - at 10^6 nodes the empty-inbox overhead is two int32s per
/// node - and freed entries recycle through a free list, so steady-state
/// pushes never allocate.  Arrivals must be pushed in canonical
/// rx_order_before order per (node, step); the slab only preserves FIFO.
///
/// Thread-safety contract (sharded engine): one InboxSlab per shard, only
/// ever touched by the owning shard's thread.
class InboxSlab {
 public:
  static constexpr std::int32_t kNil = -1;

  /// (Re)size for `nodes` local nodes; drops all queued messages.  Above
  /// the high-water mark the entry arena is released (same rationale as
  /// InboxBuf::clear).
  void reset(std::size_t nodes) {
    head_.assign(nodes, kNil);
    tail_.assign(nodes, kNil);
    if (entries_.capacity() > kHighWater) {
      std::vector<Entry>().swap(entries_);
    } else {
      entries_.clear();
    }
    free_ = kNil;
  }

  bool empty(std::size_t local) const { return head_[local] == kNil; }

  void push(std::size_t local, const Message& m) {
    std::int32_t e;
    if (free_ != kNil) {
      e = free_;
      free_ = entries_[static_cast<std::size_t>(e)].next;
      entries_[static_cast<std::size_t>(e)] = Entry{m, kNil};
    } else {
      e = static_cast<std::int32_t>(entries_.size());
      entries_.push_back(Entry{m, kNil});
    }
    if (tail_[local] == kNil) {
      head_[local] = e;
    } else {
      entries_[static_cast<std::size_t>(tail_[local])].next = e;
    }
    tail_[local] = e;
  }

  const Message& front(std::size_t local) const {
    CG_CHECK(!empty(local));
    return entries_[static_cast<std::size_t>(head_[local])].msg;
  }

  void pop(std::size_t local) {
    CG_CHECK(!empty(local));
    const std::int32_t e = head_[local];
    head_[local] = entries_[static_cast<std::size_t>(e)].next;
    if (head_[local] == kNil) tail_[local] = kNil;
    entries_[static_cast<std::size_t>(e)].next = free_;
    free_ = e;
  }

  std::size_t footprint_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           (head_.capacity() + tail_.capacity()) * sizeof(std::int32_t);
  }

  /// Arena-release threshold for reset(), in entries.
  static constexpr std::size_t kHighWater = 4096;

 private:
  struct Entry {
    Message msg;
    std::int32_t next = kNil;
  };

  std::vector<Entry> entries_;
  std::vector<std::int32_t> head_;  // per local node; kNil = empty
  std::vector<std::int32_t> tail_;
  std::int32_t free_ = kNil;
};

}  // namespace cg
