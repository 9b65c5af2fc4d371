// p2pgen — the CRC'd record file behind the observer sidecars
// (DESIGN.md §12–§14).
//
// qtrace.bin and timeline.bin are one file shape with different records:
//
//   magic[4] | u32 version | header tail | u64 count |
//   count * fixed-size records | u32 CRC32(record bytes)
//
// all little-endian.  The header tail is format-specific (empty for
// qtrace; series count, pad and tick bits for timeline).  A format is a
// small codec struct:
//
//   struct Codec {
//     using Record = ...;
//     static constexpr RecordFormat kFormat{...};
//     static void encode(unsigned char* out, const Record&) noexcept;
//     static Record decode(const unsigned char* in);  // may throw
//   };
//
// and save_records / load_records / record_digest do the rest: files are
// written through util::durable_replace and read front to back, one
// record at a time, with truncation, magic, version, checksum and
// trailing bytes all checked (every failure throws std::runtime_error
// naming the format and the path).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/fnv.hpp"

namespace p2pgen::obs {

/// The fixed facts of one record-file format.
struct RecordFormat {
  const char* name;             ///< prefix of every error message
  std::array<char, 4> magic;
  std::uint32_t version;
  std::size_t tail_bytes;       ///< header bytes between version and count
  std::size_t record_bytes;
};

namespace detail {
/// Writes a record file durably; `encode(i, out)` fills record i.
void write_record_file(
    const std::string& path, const RecordFormat& format,
    const unsigned char* tail, std::uint64_t count,
    const std::function<void(std::uint64_t, unsigned char*)>& encode);

/// Reads a record file front to back: `on_header(tail, count)` once, then
/// `on_record` per record.  False when the file does not exist.  A count
/// the file is too short to hold is refused before `on_header` runs.
bool read_record_file(
    const std::string& path, const RecordFormat& format,
    const std::function<void(const unsigned char*, std::uint64_t)>& on_header,
    const std::function<void(const unsigned char*)>& on_record);
}  // namespace detail

/// Writes `records` to `path` durably (util::durable_replace).  `tail`
/// holds Codec::kFormat.tail_bytes header bytes (may be null when 0).
template <typename Codec>
void save_records(const std::string& path,
                  const std::vector<typename Codec::Record>& records,
                  const unsigned char* tail = nullptr) {
  detail::write_record_file(
      path, Codec::kFormat, tail, records.size(),
      [&](std::uint64_t i, unsigned char* out) {
        Codec::encode(out, records[i]);
      });
}

/// Loads `path` into `out` (replacing its contents).  Returns false,
/// leaving `out` empty, when the file does not exist.  `on_tail` sees the
/// header tail before any record is read (to check or extract fields).
template <typename Codec, typename OnTail>
bool load_records(const std::string& path,
                  std::vector<typename Codec::Record>& out, OnTail&& on_tail) {
  out.clear();
  return detail::read_record_file(
      path, Codec::kFormat,
      [&](const unsigned char* tail, std::uint64_t count) {
        on_tail(tail);
        out.reserve(static_cast<std::size_t>(count));
      },
      [&](const unsigned char* record) {
        out.push_back(Codec::decode(record));
      });
}

/// FNV-1a over the encoded records, exactly the record bytes a sidecar
/// holds: the bit-identity handle of a stream.
template <typename Codec>
std::uint64_t record_digest(
    const std::vector<typename Codec::Record>& records) noexcept {
  std::uint64_t hash = util::kFnvOffsetBasis;
  std::array<unsigned char, Codec::kFormat.record_bytes> record;
  for (const auto& r : records) {
    Codec::encode(record.data(), r);
    hash = util::fnv1a_update(hash, record.data(), record.size());
  }
  return hash;
}

}  // namespace p2pgen::obs
