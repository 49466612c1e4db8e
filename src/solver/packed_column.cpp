#include "tunespace/solver/packed_column.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace tunespace::solver {

unsigned PackedColumn::bits_for_domain(std::size_t domain_size) {
  if (domain_size <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(domain_size - 1));
}

PackedColumn PackedColumn::borrowed(unsigned bits, std::size_t size,
                                    const std::uint64_t* words,
                                    std::shared_ptr<const void> keepalive) {
  PackedColumn col(bits);
  col.size_ = size;
  col.borrowed_ = words;
  col.keepalive_ = std::move(keepalive);
  return col;
}

void PackedColumn::detach() {
  owned_.assign(borrowed_, borrowed_ + word_count());
  borrowed_ = nullptr;
  keepalive_.reset();
}

void PackedColumn::grow_to_words(std::size_t need) {
  // Capacities stay powers of two words, also for one large append: freed
  // column buffers then fit the requests of later columns, which keeps
  // repeated builds from fragmenting the heap.
  if (owned_.capacity() < need) {
    owned_.reserve(std::bit_ceil(need));
  }
  owned_.resize(need, 0);
}

void PackedColumn::unpack(std::size_t begin, std::size_t count,
                          std::uint32_t* out) const {
  assert(begin + count <= size_);
  // Locals, so the stores through `out` cannot force reloads of the members.
  const unsigned bits = bits_;
  const std::uint64_t mask = mask_;
  if (bits == 0) {
    std::fill_n(out, count, 0u);
    return;
  }
  const std::uint64_t* words = data();
  std::size_t i = 0;
  if (std::endian::native == std::endian::little && bits <= 8 && begin % 8 == 0) {
    // Eight entries from an 8-aligned index fill exactly `bits` bytes, so one
    // unaligned load holds them all; stop before a load would pass the end.
    const auto* bytes = reinterpret_cast<const unsigned char*>(words);
    const std::size_t size_bytes = word_count() * sizeof(std::uint64_t);
    std::size_t at = begin / 8 * bits;
    for (; i + 8 <= count && at + 8 <= size_bytes; i += 8, at += bits) {
      std::uint64_t x = 0;
      std::memcpy(&x, bytes + at, sizeof x);
      for (unsigned k = 0; k < 8; ++k) {
        out[i + k] = static_cast<std::uint32_t>((x >> (k * bits)) & mask);
      }
    }
  }
  std::uint64_t bit = static_cast<std::uint64_t>(begin + i) * bits;
  for (; i < count; ++i, bit += bits) {
    const std::uint64_t* w = words + (bit >> 6);
    const unsigned off = static_cast<unsigned>(bit & 63);
    std::uint64_t v = *w >> off;
    if (off + bits > 64) v |= w[1] << (64 - off);
    out[i] = static_cast<std::uint32_t>(v & mask);
  }
}

void PackedColumn::push_back(std::uint32_t v) {
  assert((v & ~static_cast<std::uint64_t>(mask_)) == 0 &&
         "value exceeds column width");
  if (borrowed_) detach();
  if (bits_ == 0) {
    ++size_;
    return;
  }
  const std::uint64_t bit = static_cast<std::uint64_t>(size_) * bits_;
  const std::size_t need = words_needed(size_ + 1);
  if (need > owned_.size()) grow_to_words(need);
  const std::size_t word = static_cast<std::size_t>(bit >> 6);
  const unsigned off = static_cast<unsigned>(bit & 63);
  owned_[word] |= static_cast<std::uint64_t>(v) << off;
  if (off + bits_ > 64) {
    owned_[word + 1] |= static_cast<std::uint64_t>(v) >> (64 - off);
  }
  ++size_;
}

void PackedColumn::append_run(std::uint32_t v, std::size_t count) {
  assert((v & ~static_cast<std::uint64_t>(mask_)) == 0 &&
         "value exceeds column width");
  if (count == 0) return;
  if (v == 0) {
    if (borrowed_) detach();
    const std::size_t need = words_needed(size_ + count);
    if (need > owned_.size()) grow_to_words(need);
    size_ += count;
    return;
  }
  push_back(v);
  append_repeat(1, count - 1);
}

void PackedColumn::append_repeat(std::size_t period, std::size_t times) {
  assert(period <= size_);
  if (period == 0 || times == 0) return;
  if (borrowed_) detach();
  const std::size_t total = period * times;
  if (bits_ == 0) {
    size_ += total;
    return;
  }
  const std::size_t need = words_needed(size_ + total);
  if (need > owned_.size()) grow_to_words(need);
  // Each blit copies every whole period written so far from `begin`; the
  // source ends where the destination starts, so no blit reads its output.
  const std::uint64_t begin_bit = static_cast<std::uint64_t>(size_ - period) * bits_;
  std::size_t copies = 1;
  while (copies <= times) {
    const std::size_t k = std::min(copies, times + 1 - copies);
    append_bits(owned_.data(), begin_bit,
                static_cast<std::uint64_t>(k) * period * bits_);
    size_ += k * period;
    copies += k;
  }
}

void PackedColumn::reserve(std::size_t entries) {
  if (borrowed_) detach();
  owned_.reserve(std::bit_ceil(words_needed(entries)));  // as grow_to_words
}

void PackedColumn::append_bits(const std::uint64_t* src, std::uint64_t src_bit,
                               std::uint64_t nbits) {
  std::uint64_t dst_bit = static_cast<std::uint64_t>(size_) * bits_;
  while (nbits > 0) {
    const unsigned chunk = nbits < 64 ? static_cast<unsigned>(nbits) : 64u;
    const std::uint64_t* sw = src + (src_bit >> 6);
    const unsigned soff = static_cast<unsigned>(src_bit & 63);
    std::uint64_t v = sw[0] >> soff;
    // The second source word exists whenever the chunk extends into it.
    if (soff + chunk > 64) v |= sw[1] << (64 - soff);
    if (chunk < 64) v &= (1ULL << chunk) - 1;
    std::uint64_t* dw = owned_.data() + (dst_bit >> 6);
    const unsigned doff = static_cast<unsigned>(dst_bit & 63);
    dw[0] |= v << doff;
    if (doff + chunk > 64) dw[1] |= v >> (64 - doff);
    src_bit += chunk;
    dst_bit += chunk;
    nbits -= chunk;
  }
}

void PackedColumn::append(const PackedColumn& other, std::size_t begin,
                          std::size_t count) {
  assert(begin + count <= other.size_);
  if (count == 0) return;
  if (bits_ != other.bits_) {
    // Width mismatch (e.g. a packed target fed from an unpacked scratch
    // set): element-wise fallback.
    for (std::size_t i = 0; i < count; ++i) push_back(other.get(begin + i));
    return;
  }
  if (borrowed_) detach();
  if (bits_ == 0) {
    size_ += count;
    return;
  }
  const std::size_t need = words_needed(size_ + count);
  if (need > owned_.size()) grow_to_words(need);
  append_bits(other.data(), static_cast<std::uint64_t>(begin) * bits_,
              static_cast<std::uint64_t>(count) * bits_);
  size_ += count;
}

bool PackedColumn::operator==(const PackedColumn& o) const {
  if (size_ != o.size_) return false;
  if (bits_ == o.bits_) {
    // Tail bits past size()*bits() are zero by invariant, so equal-width
    // columns compare word-by-word.
    const std::size_t words = word_count();
    return std::equal(data(), data() + words, o.data());
  }
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i) != o.get(i)) return false;
  }
  return true;
}

}  // namespace tunespace::solver
