// Runs one child process to completion and measures it from the outside.

#ifndef PERFBENCH_SRC_SPAWN_H_
#define PERFBENCH_SRC_SPAWN_H_

#include <string>
#include <vector>

namespace perfbench {

struct ProcessResult {
  bool started = false;   // False when the spawn itself failed (see `error`).
  int exit_code = -1;     // -1 when the child did not exit normally.
  double wall_ms = 0.0;   // From just before the spawn to the reaped exit.
  double cpu_ms = 0.0;    // Child user + system time (rusage).
  double max_rss_mb = 0.0;  // Child peak resident set size (rusage).
  bool timed_out = false;  // Killed after the timeout.
  std::string out;        // Captured standard output.
  std::string error;
};

// Spawns argv[0] (a path) with `argv`, standard output redirected to
// `stdout_path` and standard error to `stderr_path` (both truncated), waits
// for it to exit, and reads the captured output back. A child still running
// after `timeout_s` is killed and reaped, and reported as timed out.
ProcessResult RunProcess(const std::vector<std::string>& argv, const std::string& stdout_path,
                         const std::string& stderr_path, double timeout_s = 20.0);

// Kills and reaps the child RunProcess is waiting on, if any. For a watchdog
// thread that ends the whole run.
void KillRunningChild();

// On SIGTERM, SIGINT or SIGHUP, kills and reaps the running child before the
// process exits, so a stopped run leaves no `wasabi` behind.
void KillChildOnTermination();

// Reads a whole file; false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* text);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAWN_H_
