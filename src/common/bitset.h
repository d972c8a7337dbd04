// DynamicBitset: a growable bitset used for reachability closures.

#ifndef HIREL_COMMON_BITSET_H_
#define HIREL_COMMON_BITSET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hirel {

/// A densely packed bit vector sized at runtime. Used by the graph module
/// to hold per-node transitive-closure rows, where OR-ing whole rows is the
/// hot operation.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t size) { Resize(size); }

  /// Grows (or shrinks) to exactly `size` bits; new bits are zero.
  void Resize(size_t size);

  size_t size() const { return size_; }

  void Set(size_t i);
  void Clear(size_t i);

  /// Inline: the tuple store reads its alive and truth bits on every
  /// tuple access.
  bool Test(size_t i) const {
    assert(i < size_);
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
  }

  /// Sets every bit to zero without changing the size.
  void Reset();

  /// this |= other. Requires identical sizes.
  void UnionWith(const DynamicBitset& other);

  /// this &= other. Requires identical sizes.
  void IntersectWith(const DynamicBitset& other);

  /// True if no bit is set.
  bool None() const;

  /// True if (this & other) has any bit set. Requires identical sizes.
  bool Intersects(const DynamicBitset& other) const;

  /// Number of set bits.
  size_t Count() const;

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> ToVector() const;

  /// Number of 64-bit words backing the set.
  size_t num_words() const { return words_.size(); }

  /// Heap bytes the set holds, at allocated capacity.
  size_t Bytes() const { return words_.capacity() * sizeof(uint64_t); }

  /// The i-th backing word; bit b of word i is index i * 64 + b. Lets
  /// liveness scans skip whole dead words instead of testing bit by bit.
  uint64_t word(size_t i) const { return words_[i]; }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  static constexpr size_t kBitsPerWord = 64;

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace hirel

#endif  // HIREL_COMMON_BITSET_H_
