// Append-only sequence stored in fixed-size chunks.
//
// The profiler's trace (prof::RunTrace) appends one record per executed
// op and per committed message, about a million of them for cg on 8
// nodes, and nothing is ever erased.  std::vector grows such a sequence
// by doubling: it holds up to twice the records' size, and old and new
// buffers at once while it copies.  ChunkedVector instead allocates one
// chunk of kChunkSize elements at a time, and growth never copies, moves
// or frees an earlier element, so the store holds its records plus at
// most one partly filled chunk.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace soc {

template <typename T>
class ChunkedVector {
 public:
  static constexpr std::size_t kChunkSize = 4096;

  std::size_t size() const {
    return chunks_.empty()
               ? 0
               : (chunks_.size() - 1) * kChunkSize + chunks_.back().size();
  }

  void push_back(T value) {
    if (chunks_.empty() || chunks_.back().size() == kChunkSize) {
      chunks_.emplace_back();
      chunks_.back().reserve(kChunkSize);
    }
    chunks_.back().push_back(std::move(value));
  }

  T& operator[](std::size_t i) {
    return chunks_[i / kChunkSize][i % kChunkSize];
  }
  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunkSize][i % kChunkSize];
  }

  /// Read-only iteration in index order (range-for).
  class const_iterator {
   public:
    const_iterator(const ChunkedVector* owner, std::size_t i)
        : owner_(owner), i_(i) {}
    const T& operator*() const { return (*owner_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const ChunkedVector* owner_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

 private:
  std::vector<std::vector<T>> chunks_;  ///< Each reserved to kChunkSize.
};

}  // namespace soc
