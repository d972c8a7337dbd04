#include "common/bitset.h"

#include <bit>
#include <cassert>

namespace hirel {

void DynamicBitset::Resize(size_t size) {
  size_ = size;
  words_.resize((size + kBitsPerWord - 1) / kBitsPerWord, 0);
  // Clear any stale bits beyond the new size in the last word.
  size_t tail = size % kBitsPerWord;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

void DynamicBitset::Set(size_t i) {
  assert(i < size_);
  words_[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
}

void DynamicBitset::Clear(size_t i) {
  assert(i < size_);
  words_[i / kBitsPerWord] &= ~(uint64_t{1} << (i % kBitsPerWord));
}

void DynamicBitset::Reset() {
  for (auto& w : words_) w = 0;
}

void DynamicBitset::UnionWith(const DynamicBitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void DynamicBitset::IntersectWith(const DynamicBitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

bool DynamicBitset::None() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

size_t DynamicBitset::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

std::vector<uint32_t> DynamicBitset::ToVector() const {
  std::vector<uint32_t> out;
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      int bit = std::countr_zero(w);
      out.push_back(static_cast<uint32_t>(wi * kBitsPerWord + bit));
      w &= w - 1;
    }
  }
  return out;
}

}  // namespace hirel
