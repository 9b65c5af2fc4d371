#include "gnutella/qrp.hpp"

#include <bit>
#include <cctype>
#include <stdexcept>

namespace p2pgen::gnutella {
namespace {

/// Splits on whitespace, applying `fn` to each word.
template <typename Fn>
void for_each_word(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  while (start < text.size()) {
    while (start < text.size() &&
           std::isspace(static_cast<unsigned char>(text[start]))) {
      ++start;
    }
    std::size_t end = start;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    if (end > start) fn(text.substr(start, end - start));
    start = end;
  }
}

}  // namespace

QrpTable::QrpTable(unsigned log2_size) : log2_size_(log2_size) {
  if (log2_size == 0 || log2_size > 24) {
    throw std::invalid_argument("QrpTable: log2_size must be in [1, 24]");
  }
  words_.assign((bit_count() + 63) / 64, 0);
}

std::uint32_t QrpTable::hash_keyword(std::string_view keyword, unsigned bits) {
  // Classic QRP v0.1 hash: pack lower-cased bytes into 32-bit words XORed
  // with a rotating mask, then multiplicative hashing (A = 0x4F1BBCDC)
  // keeping the top `bits` bits.
  std::uint32_t xor_acc = 0;
  unsigned shift = 0;
  for (char c : keyword) {
    const auto b = static_cast<std::uint32_t>(
        std::tolower(static_cast<unsigned char>(c)));
    xor_acc ^= (b & 0xFF) << shift;
    shift = (shift + 8) & 0x18;  // 0, 8, 16, 24, 0, ...
  }
  const std::uint64_t product =
      static_cast<std::uint64_t>(xor_acc) * 0x4F1BBCDCULL;
  return static_cast<std::uint32_t>((product << 32 >> 32) >> (32 - bits));
}

void QrpTable::insert_keyword(std::string_view keyword) {
  if (keyword.empty()) return;
  const std::uint32_t slot = hash_keyword(keyword, log2_size_);
  if (!test(slot)) {
    words_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    ++set_count_;
  }
}

void QrpTable::insert_keywords_of(std::string_view text) {
  for_each_word(text, [this](std::string_view word) { insert_keyword(word); });
}

bool QrpTable::might_match(std::string_view query) const {
  bool any = false;
  bool all = true;
  for_each_word(query, [&](std::string_view word) {
    any = true;
    if (!test(hash_keyword(word, log2_size_))) all = false;
  });
  return any && all;
}

void QrpTable::merge(const QrpTable& other) {
  if (other.log2_size_ != log2_size_) {
    throw std::invalid_argument("QrpTable: size mismatch in merge");
  }
  for (std::size_t w = 0; w < words_.size(); ++w) {
    set_count_ += static_cast<std::size_t>(
        std::popcount(other.words_[w] & ~words_[w]));
    words_[w] |= other.words_[w];
  }
}

double QrpTable::fill_ratio() const {
  return static_cast<double>(set_count_) / static_cast<double>(bit_count());
}

std::vector<std::uint8_t> QrpTable::to_patch() const {
  // Byte j holds bits 8j..8j+7, least significant first: byte j % 8 of
  // word j / 8, counting from its low end.
  std::vector<std::uint8_t> patch((bit_count() + 7) / 8, 0);
  for (std::size_t j = 0; j < patch.size(); ++j) {
    patch[j] = static_cast<std::uint8_t>(words_[j / 8] >> (8 * (j % 8)));
  }
  return patch;
}

QrpTable QrpTable::from_patch(const std::vector<std::uint8_t>& patch) {
  const std::size_t bit_count = patch.size() * 8;
  unsigned log2 = 0;
  while ((std::size_t{1} << log2) < bit_count && log2 <= 24) ++log2;
  if ((std::size_t{1} << log2) != bit_count) {
    throw std::invalid_argument("QrpTable: patch is not a power-of-two size");
  }
  QrpTable table(log2);
  for (std::size_t j = 0; j < patch.size(); ++j) {
    table.words_[j / 8] |= std::uint64_t{patch[j]} << (8 * (j % 8));
  }
  for (const std::uint64_t word : table.words_) {
    table.set_count_ += static_cast<std::size_t>(std::popcount(word));
  }
  return table;
}

}  // namespace p2pgen::gnutella
