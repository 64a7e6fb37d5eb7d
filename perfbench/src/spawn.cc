#include "perfbench/src/spawn.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

namespace {

std::atomic<pid_t> running_child{0};

// Waits up to `timeout_s` for `pid` to exit without reaping it. False on
// timeout. Without pidfd support (Linux < 5.3) it cannot time out and
// returns true at once, leaving wait4 to block.
bool AwaitExit(pid_t pid, double timeout_s) {
  int pidfd = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
  if (pidfd < 0) {
    return true;
  }
  struct pollfd watch = {pidfd, POLLIN, 0};
  int ready = 0;
  do {
    ready = poll(&watch, 1, static_cast<int>(timeout_s * 1000));
  } while (ready < 0 && errno == EINTR);
  close(pidfd);
  return ready != 0;
}

}  // namespace

void KillRunningChild() {
  pid_t pid = running_child.exchange(0);
  if (pid > 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
}

void KillChildOnTermination() {
  static_assert(std::atomic<pid_t>::is_always_lock_free);  // Read from a signal handler.
  struct sigaction action {};
  action.sa_handler = [](int signal) {
    KillRunningChild();
    _exit(128 + signal);
  };
  sigemptyset(&action.sa_mask);
  for (int signal : {SIGTERM, SIGINT, SIGHUP}) {
    sigaction(signal, &action, nullptr);
  }
}

ProcessResult RunProcess(const std::vector<std::string>& argv, const std::string& stdout_path,
                         const std::string& stderr_path, double timeout_s) {
  ProcessResult result;
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);

  auto start = std::chrono::steady_clock::now();
  pid_t pid = 0;
  int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    result.error = std::string("cannot spawn ") + argv[0] + ": " + std::strerror(rc);
    return result;
  }
  result.started = true;
  running_child.store(pid);

  if (!AwaitExit(pid, timeout_s)) {
    kill(pid, SIGKILL);
    result.timed_out = true;
  }
  int status = 0;
  struct rusage usage {};
  pid_t reaped = -1;
  do {
    reaped = wait4(pid, &status, 0, &usage);
  } while (reaped < 0 && errno == EINTR);
  auto end = std::chrono::steady_clock::now();
  running_child.store(0);
  if (reaped != pid) {
    result.error = std::string("wait4 failed: ") + std::strerror(errno);
    return result;
  }

  result.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  result.cpu_ms = (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
                  (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
  result.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (result.timed_out) {
    result.error = argv[0] + " still running after " + std::to_string(timeout_s) +
                   " s; killed";
  }
  if (!ReadFile(stdout_path, &result.out)) {
    result.error = "cannot read " + stdout_path;
  }
  return result;
}

}  // namespace perfbench
