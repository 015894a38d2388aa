#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace stencil::check {

/// One buffer's shadow segments: disjoint byte ranges [start, end), each
/// carrying a value (the checker stores a pointer to a shared access
/// history), kept sorted by start in flat chunks of at most kChunk segments.
/// Every segment of chunk c precedes every segment of chunk c + 1.
///
/// A lookup is a binary search over the chunks, then one within a chunk; an
/// insert shifts at most one chunk and splits it in halves when it
/// overflows, so building a buffer's shape costs O(log n + kChunk) per new
/// segment, and stepping from one segment to the next is an index
/// increment. Positions stay valid until the next insert, which returns the
/// position of what it inserted.
template <class V>
class SegmentMap {
 public:
  struct Segment {
    std::size_t start = 0;
    std::size_t end = 0;
    V value{};
  };

  /// A segment's place: chunk `c`, index `i` within it. The end position is
  /// {chunks, 0}.
  struct Pos {
    std::uint32_t c = 0;
    std::uint32_t i = 0;
  };

  static constexpr std::size_t kChunk = 64;

  std::size_t size() const { return size_; }
  bool at_end(Pos p) const { return p.c == chunks_.size(); }
  Segment& operator[](Pos p) { return chunks_[p.c][p.i]; }

  Pos next(Pos p) const {
    if (++p.i == chunks_[p.c].size()) p = {p.c + 1, 0};
    return p;
  }

  /// The first segment that ends after `off`, or the end position.
  Pos find(std::size_t off) const { return seek({0, 0}, off); }

  /// find(off), given that every segment before `p` ends at or before
  /// `off`: checks `p` itself, then searches the rest of its chunk, and only
  /// then the later chunks. A walk over rows in offset order seeks from
  /// where the previous row left it.
  Pos seek(Pos p, std::size_t off) const {
    if (at_end(p)) return p;
    const Chunk& here = chunks_[p.c];
    if (here[p.i].end > off) return p;
    if (here.back().end > off) {
      const auto s = std::partition_point(here.begin() + p.i + 1, here.end(),
                                          [off](const Segment& seg) { return seg.end <= off; });
      return {p.c, static_cast<std::uint32_t>(s - here.begin())};
    }
    const auto c = std::partition_point(chunks_.begin() + p.c + 1, chunks_.end(),
                                        [off](const Chunk& ch) { return ch.back().end <= off; });
    if (c == chunks_.end()) return end_pos();
    const auto s = std::partition_point(c->begin(), c->end(),
                                        [off](const Segment& seg) { return seg.end <= off; });
    return {static_cast<std::uint32_t>(c - chunks_.begin()),
            static_cast<std::uint32_t>(s - c->begin())};
  }

  /// Insert `seg` just before position `p` (the caller keeps the order:
  /// `seg` ends at or before p's start and starts at or after its
  /// predecessor's end). Returns the position of the inserted segment.
  Pos insert(Pos p, const Segment& seg) {
    ++size_;
    if (chunks_.empty()) {
      chunks_.emplace_back();
      chunks_.back().reserve(kChunk + 1);
      chunks_.back().push_back(seg);
      return {0, 0};
    }
    if (at_end(p)) {
      p.c = static_cast<std::uint32_t>(chunks_.size() - 1);
      p.i = static_cast<std::uint32_t>(chunks_.back().size());
    }
    Chunk& ch = chunks_[p.c];
    ch.insert(ch.begin() + p.i, seg);
    if (ch.size() <= kChunk) return p;
    // Split the full chunk in halves; the upper half becomes chunk c + 1.
    constexpr std::size_t half = (kChunk + 1) / 2;
    Chunk upper;
    upper.reserve(kChunk + 1);
    upper.assign(ch.begin() + half, ch.end());
    ch.erase(ch.begin() + half, ch.end());
    chunks_.insert(chunks_.begin() + p.c + 1, std::move(upper));
    if (p.i >= half) p = {p.c + 1, static_cast<std::uint32_t>(p.i - half)};
    return p;
  }

 private:
  using Chunk = std::vector<Segment>;  // never empty, capacity kChunk + 1

  Pos end_pos() const { return {static_cast<std::uint32_t>(chunks_.size()), 0}; }

  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
};

}  // namespace stencil::check
