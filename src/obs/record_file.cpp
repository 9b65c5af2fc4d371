#include "obs/record_file.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "util/crc32.hpp"
#include "util/durable_file.hpp"
#include "util/le_bytes.hpp"

namespace p2pgen::obs::detail {

void write_record_file(
    const std::string& path, const RecordFormat& format,
    const unsigned char* tail, std::uint64_t count,
    const std::function<void(std::uint64_t, unsigned char*)>& encode) {
  util::durable_replace(path, [&](std::FILE* file) {
    unsigned char word[8];
    std::fwrite(format.magic.data(), 1, 4, file);
    util::put_u32(word, format.version);
    std::fwrite(word, 1, 4, file);
    if (format.tail_bytes > 0) std::fwrite(tail, 1, format.tail_bytes, file);
    util::put_u64(word, count);
    std::fwrite(word, 1, 8, file);
    std::vector<unsigned char> record(format.record_bytes);
    std::uint32_t crc = util::crc32_init();
    for (std::uint64_t i = 0; i < count; ++i) {
      encode(i, record.data());
      crc = util::crc32_update(crc, record.data(), record.size());
      std::fwrite(record.data(), 1, record.size(), file);
    }
    util::put_u32(word, util::crc32_final(crc));
    std::fwrite(word, 1, 4, file);
  });
}

bool read_record_file(
    const std::string& path, const RecordFormat& format,
    const std::function<void(const unsigned char*, std::uint64_t)>& on_header,
    const std::function<void(const unsigned char*)>& on_record) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) return false;
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(std::string(format.name) + ": " + what + " in " +
                             path);
  };
  const auto read = [&](unsigned char* out, std::size_t n) {
    return std::fread(out, 1, n, file.get()) == n;
  };

  std::vector<unsigned char> header(8 + format.tail_bytes + 8);
  if (!read(header.data(), header.size())) fail("truncated header");
  if (std::memcmp(header.data(), format.magic.data(), 4) != 0) {
    fail("bad magic");
  }
  const std::uint32_t version = util::get_u32(header.data() + 4);
  if (version != format.version) {
    fail("unsupported version " + std::to_string(version));
  }
  const std::uint64_t count =
      util::get_u64(header.data() + 8 + format.tail_bytes);
  // A damaged count must read as truncation, not as a huge allocation.
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  const std::uint64_t framing = header.size() + 4;
  if (!ec &&
      (size < framing || (size - framing) / format.record_bytes < count)) {
    fail("truncated record");
  }
  on_header(header.data() + 8, count);

  std::vector<unsigned char> record(format.record_bytes);
  std::uint32_t crc = util::crc32_init();
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!read(record.data(), record.size())) fail("truncated record");
    crc = util::crc32_update(crc, record.data(), record.size());
    on_record(record.data());
  }
  unsigned char trailer[4];
  if (!read(trailer, sizeof(trailer))) fail("truncated checksum");
  if (util::get_u32(trailer) != util::crc32_final(crc)) {
    fail("checksum mismatch");
  }
  if (read(trailer, 1)) fail("trailing bytes");
  return true;
}

}  // namespace p2pgen::obs::detail
