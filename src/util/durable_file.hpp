// p2pgen — crash-safe whole-file replace.
//
// The one write path for every small file a durable run must be able to
// trust after a crash (the checkpoint MANIFEST, the qtrace/timeline
// sidecars): write a temporary, fsync it, rename it over the target, then
// fsync the directory so the rename itself is durable.  Header-only, so
// the obs layer can use it without linking anything.
#pragma once

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace p2pgen::util {

/// fsyncs a directory so entries created or renamed in it survive a
/// crash.  Returns 0, or the errno of the failed open/fsync.  A no-op
/// returning 0 where directories cannot be synced.
inline int fsync_directory(const std::string& dir) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return errno;
  const int rc = ::fsync(fd);
  const int err = rc != 0 ? errno : 0;
  ::close(fd);
  return err;
#else
  (void)dir;
  return 0;
#endif
}

/// Replaces `path` with the bytes `write(std::FILE*)` emits.  They go to
/// "<path>.tmp", which is flushed and fsync'd, renamed over `path`, and
/// the directory is fsync'd: on return the new file is durable, and a
/// crash at any point leaves either the old file or the new one, never a
/// torn one.  `write` may fwrite freely; a short write is caught here.
/// Throws std::system_error (a std::runtime_error) carrying the errno.
template <typename Write>
void durable_replace(const std::string& path, Write&& write) {
  const std::string tmp = path + ".tmp";
  const auto fail = [](const std::string& what, int err) {
    throw std::system_error(err != 0 ? err : EIO, std::generic_category(),
                            what);
  };
  errno = 0;
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) fail("cannot open " + tmp, errno);
  struct Closer {
    std::FILE*& file;
    ~Closer() {
      if (file != nullptr) std::fclose(file);
    }
  } closer{file};

  write(file);
  if (std::ferror(file) != 0 || std::fflush(file) != 0) {
    fail("write failed: " + tmp, errno);
  }
#if defined(__unix__) || defined(__APPLE__)
  errno = 0;
  if (::fsync(::fileno(file)) != 0) fail("fsync failed: " + tmp, errno);
#endif
  errno = 0;
  const int closed = std::fclose(file);
  file = nullptr;
  if (closed != 0) fail("close failed: " + tmp, errno);
  errno = 0;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("rename failed: " + path, errno);
  }
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  // EINVAL: the file system cannot sync directories at all.
  const int err = fsync_directory(dir);
  if (err != 0 && err != EINVAL) fail("directory fsync failed: " + dir, err);
}

}  // namespace p2pgen::util
