// Runs a test body where file permission bits are enforced (tests only,
// POSIX).
//
// The write-error tests make a directory unwritable and expect the write
// to fail.  Root bypasses permission bits, so as root the body runs in a
// forked child that first drops to the unprivileged uid/gid 65534.
#pragma once

#include <gtest/gtest.h>

#include <grp.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>
#include <functional>

namespace p2pgen::testutil {

/// Runs `body` with permission bits enforced.  Returns 0 once it ran, or
/// the errno of a failed privilege drop (the caller skips the test then).
/// Unprivileged, `body` runs in-process.  As root it runs in a forked
/// child after setgroups, setgid and setuid to 65534, each checked; the
/// child prints its own gtest failures and exits with
/// ::testing::Test::HasFailure(), and this asserts a clean exit.  `body`
/// must create the directories it writes in itself: the child cannot
/// write into directories root made.
inline int run_unprivileged(const std::function<void()>& body) {
  if (::geteuid() != 0) {
    body();
    return 0;
  }
  int fds[2];
  if (::pipe(fds) != 0) return errno;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int error = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    return error;
  }
  if (pid == 0) {
    ::close(fds[0]);
    constexpr uid_t kNobody = 65534;
    int error = 0;
    if (::setgroups(0, nullptr) != 0) {
      error = errno;
    } else if (::setgid(kNobody) != 0) {
      error = errno;
    } else if (::setuid(kNobody) != 0) {
      error = errno;
    }
    if (error != 0) {
      (void)!::write(fds[1], &error, sizeof(error));
      ::_exit(2);
    }
    ::close(fds[1]);
    // An escaping exception must not unwind into the test runner, which
    // would go on running the remaining tests in this child.
    try {
      body();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unprivileged body threw: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "unprivileged body threw";
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(::testing::Test::HasFailure() ? 1 : 0);
  }
  ::close(fds[1]);
  int drop_error = 0;
  const ssize_t got = ::read(fds[0], &drop_error, sizeof(drop_error));
  ::close(fds[0]);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  if (got == static_cast<ssize_t>(sizeof(drop_error))) return drop_error;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the unprivileged child failed (wait status " << status << ")";
  return 0;
}

}  // namespace p2pgen::testutil
