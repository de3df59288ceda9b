// Per-machine component index: intrusive per-component lists over a
// record store's dense slots.
//
// Every comp-filtered protocol step (a split or merge transform, the
// k-way commit, the replacement cascade's fragment scan, the path-max and
// path-weight sums) touches only the records of the components a batch
// names.  Walking the whole shard and testing each record's comp makes
// that local work O(records on the machine) per step; walking the
// component's bucket makes it O(records of that component on the
// machine), which is what the batch actually touches.
//
// The index is derived state: the owning store relinks a slot whenever it
// writes that slot's comp, so it never needs its own journal entries —
// replaying the store's record pre-images restores the index with them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dmpc/types.hpp"

namespace core {

class CompIndex {
 public:
  using Word = dmpc::Word;
  using Slot = std::uint32_t;
  static constexpr Slot kNil = 0xffffffffu;

  /// Model words per indexed record: the two 32-bit links (one word) plus,
  /// at worst, one bucket (comp, head, size: two words) of its own — a
  /// bucket exists only while at least one local record sits in it.
  static constexpr Word kWordsPerRecord = 3;

  void reserve(std::size_t slots) {
    next_.reserve(slots);
    prev_.reserve(slots);
  }

  /// Appends a new slot (the next index) to comp's bucket.
  void push_back(Word comp) {
    next_.push_back(kNil);
    prev_.push_back(kNil);
    link(static_cast<Slot>(next_.size() - 1), comp);
  }

  /// Moves slot s from bucket `from` to bucket `to`.
  void relink(Slot s, Word from, Word to) {
    if (from == to) return;
    unlink(s, from);
    link(s, to);
  }

  /// Swap-remove: drops slot s (in bucket `comp`) and moves the last
  /// slot, in bucket `last_comp`, into its place — the store mirrors the
  /// same move in its columns.
  void swap_remove(Slot s, Word comp, Word last_comp) {
    unlink(s, comp);
    const Slot last = static_cast<Slot>(next_.size() - 1);
    if (s != last) {
      next_[s] = next_[last];
      prev_[s] = prev_[last];
      if (prev_[s] != kNil) {
        next_[prev_[s]] = s;
      } else {
        buckets_.find(last_comp)->head = s;
      }
      if (next_[s] != kNil) prev_[next_[s]] = s;
    }
    next_.pop_back();
    prev_.pop_back();
  }

  /// Number of slots in comp's bucket.
  [[nodiscard]] std::size_t count(Word comp) const {
    const Bucket* b = buckets_.find(comp);
    return b == nullptr ? 0 : b->size;
  }

  /// Calls f(slot) for every slot in comp's bucket.  f may relink the
  /// slot it is handed (and only that slot) to another bucket: the walk
  /// reads the successor first.
  template <typename F>
  void for_each(Word comp, F&& f) const {
    const Bucket* b = buckets_.find(comp);
    if (b == nullptr) return;
    for (Slot s = b->head; s != kNil;) {
      const Slot nx = next_[s];
      f(s);
      s = nx;
    }
  }

  /// Appends comp's slots to `out` (the snapshot a multi-bucket rewrite
  /// takes before relabelling records into other walked buckets).
  void append(Word comp, std::vector<Slot>& out) const {
    for_each(comp, [&](Slot s) { out.push_back(s); });
  }

  /// Structural check against the store's comp column: every slot sits in
  /// exactly the bucket of comp_of(slot), links are mutually consistent,
  /// and each bucket's size is its list length.
  template <typename CompOf>
  [[nodiscard]] bool check(CompOf comp_of, std::string* why) const {
    const auto fail = [why](const std::string& msg) {
      if (why != nullptr) *why = msg;
      return false;
    };
    std::vector<char> seen(next_.size(), 0);
    std::size_t total = 0;
    bool ok = true;
    buckets_.for_each([&](Word comp, const Bucket& b) {
      if (!ok) return;
      std::size_t len = 0;
      Slot prev = kNil;
      for (Slot s = b.head; s != kNil; s = next_[s]) {
        if (s >= next_.size() || seen[s] != 0 || prev_[s] != prev ||
            comp_of(s) != comp) {
          ok = fail("component index: slot " + std::to_string(s) +
                    " misplaced in bucket " + std::to_string(comp));
          return;
        }
        seen[s] = 1;
        prev = s;
        ++len;
      }
      if (len != b.size || len == 0) {
        ok = fail("component index: bucket " + std::to_string(comp) +
                  " size " + std::to_string(b.size) + " != " +
                  std::to_string(len) + " linked records");
      }
      total += len;
    });
    if (ok && total != next_.size()) {
      return fail("component index: " + std::to_string(next_.size() - total) +
                  " records missing from their buckets");
    }
    return ok;
  }

 private:
  struct Bucket {
    Slot head = kNil;
    std::uint32_t size = 0;
  };

  /// Open-addressing (linear probing, backward-shift erase) map from comp
  /// to its bucket.  Flat storage keeps the per-record relink — two
  /// lookups — free of node allocation, and holds a bucket in two words.
  class BucketMap {
   public:
    [[nodiscard]] Bucket* find(Word key) {
      if (cells_.empty()) return nullptr;
      for (std::size_t i = home(key);; i = (i + 1) & mask()) {
        if (cells_[i].key == key) return &cells_[i].b;
        if (cells_[i].key == kEmpty) return nullptr;
      }
    }
    [[nodiscard]] const Bucket* find(Word key) const {
      return const_cast<BucketMap*>(this)->find(key);
    }
    Bucket& get_or_add(Word key) {
      if (2 * (used_ + 1) > cells_.size()) grow();
      std::size_t i = home(key);
      for (; cells_[i].key != kEmpty; i = (i + 1) & mask()) {
        if (cells_[i].key == key) return cells_[i].b;
      }
      cells_[i].key = key;
      cells_[i].b = Bucket{};
      ++used_;
      return cells_[i].b;
    }
    void erase(Word key) {
      std::size_t i = home(key);
      while (cells_[i].key != key) i = (i + 1) & mask();
      // Backward shift: pull later cells of the probe run into the hole
      // unless that would move one before its home position.
      for (std::size_t j = (i + 1) & mask(); cells_[j].key != kEmpty;
           j = (j + 1) & mask()) {
        const std::size_t h = home(cells_[j].key);
        if (((j - h) & mask()) >= ((j - i) & mask())) {
          cells_[i] = cells_[j];
          i = j;
        }
      }
      cells_[i].key = kEmpty;
      --used_;
    }
    template <typename F>
    void for_each(F&& f) const {
      for (const Cell& c : cells_) {
        if (c.key != kEmpty) f(c.key, c.b);
      }
    }

   private:
    static constexpr Word kEmpty = INT64_MIN;
    struct Cell {
      Word key = kEmpty;
      Bucket b;
    };
    [[nodiscard]] std::size_t mask() const { return cells_.size() - 1; }
    [[nodiscard]] std::size_t home(Word key) const {
      return static_cast<std::size_t>(
                 (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
                 32) &
             mask();
    }
    void grow() {
      std::vector<Cell> old;
      old.swap(cells_);
      cells_.assign(old.empty() ? 16 : 2 * old.size(), Cell{});
      for (const Cell& c : old) {
        if (c.key == kEmpty) continue;
        std::size_t i = home(c.key);
        while (cells_[i].key != kEmpty) i = (i + 1) & mask();
        cells_[i] = c;
      }
    }
    std::vector<Cell> cells_;
    std::size_t used_ = 0;
  };

  void link(Slot s, Word comp) {
    Bucket& b = buckets_.get_or_add(comp);
    prev_[s] = kNil;
    next_[s] = b.head;
    if (b.head != kNil) prev_[b.head] = s;
    b.head = s;
    ++b.size;
  }

  void unlink(Slot s, Word comp) {
    Bucket* b = buckets_.find(comp);
    if (prev_[s] != kNil) {
      next_[prev_[s]] = next_[s];
    } else {
      b->head = next_[s];
    }
    if (next_[s] != kNil) prev_[next_[s]] = prev_[s];
    if (--b->size == 0) buckets_.erase(comp);
  }

  std::vector<Slot> next_, prev_;
  BucketMap buckets_;
};

}  // namespace core
