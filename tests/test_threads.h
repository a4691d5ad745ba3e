#ifndef TPART_TESTS_TEST_THREADS_H_
#define TPART_TESTS_TEST_THREADS_H_

// Thread counts for tests that assert how many threads a component
// starts.

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <thread>

namespace tpart::test {

/// Threads of this process, as /proc/self/task lists them.
inline std::size_t ProcessThreads() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// ProcessThreads() once two reads a millisecond apart agree: a thread
/// joined a moment ago can stay listed until the kernel reaps it.
inline std::size_t SettledProcessThreads() {
  std::size_t n = ProcessThreads();
  for (int i = 0; i < 1000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::size_t again = ProcessThreads();
    if (again == n) break;
    n = again;
  }
  return n;
}

}  // namespace tpart::test

#endif  // TPART_TESTS_TEST_THREADS_H_
