# Degraded-mode and robustness smoke test for the CLI (docs/ROBUSTNESS.md):
#   1. a corpus tree with one malformed source analyzes to completion — exit 0,
#      "degraded": true, the skipped file listed, bugs still reported;
#   2. a healthy tree stays byte-identical to the legacy array format;
#   3. --chaos output is deterministic across worker counts;
#   4. option validation: bad --jobs / --max-quarantined / --chaos values are
#      rejected with exit code 2 and the usage line.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus failed: ${rc}")
endif()

set(app "${WORK_DIR}/mapred")

# Healthy baseline: the analyze alias must emit the plain legacy array.
execute_process(COMMAND "${WASABI_CLI}" analyze "${app}" --json --jobs 2
                OUTPUT_VARIABLE clean_json RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean analyze failed: ${rc}")
endif()
string(JSON clean_kind ERROR_VARIABLE err TYPE "${clean_json}")
if(NOT err STREQUAL "NOTFOUND" OR NOT clean_kind STREQUAL "ARRAY")
  message(FATAL_ERROR "clean analyze output is not a JSON array (${clean_kind}, ${err})")
endif()

# Corrupt the tree: one unparseable file must degrade the report, not kill it.
file(WRITE "${app}/broken.mj" "class Broken { void f( { if } }\n")
execute_process(COMMAND "${WASABI_CLI}" analyze "${app}" --json --jobs 2
                OUTPUT_VARIABLE degraded_json ERROR_VARIABLE degraded_err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "degraded analyze must still exit 0, got: ${rc}")
endif()
string(JSON degraded ERROR_VARIABLE err GET "${degraded_json}" "degraded")
if(NOT err STREQUAL "NOTFOUND" OR NOT degraded STREQUAL "ON")
  message(FATAL_ERROR "missing \"degraded\": true (got '${degraded}', err='${err}')")
endif()
string(JSON skipped_path ERROR_VARIABLE err GET "${degraded_json}" "skipped_files" 0 "path")
if(NOT skipped_path STREQUAL "broken.mj")
  message(FATAL_ERROR "skipped_files does not name broken.mj (got '${skipped_path}')")
endif()
string(JSON bug_count ERROR_VARIABLE err LENGTH "${degraded_json}" "bugs")
if(NOT err STREQUAL "NOTFOUND" OR bug_count EQUAL 0)
  message(FATAL_ERROR "degraded report lost its bugs (count='${bug_count}', err='${err}')")
endif()
if(NOT degraded_err MATCHES "skipping broken.mj")
  message(FATAL_ERROR "stderr does not explain the skipped file: ${degraded_err}")
endif()
# Each parse error names its file, so errors from several broken files can be
# told apart.
if(NOT degraded_err MATCHES "(^|\n)broken\\.mj:1:[0-9]+: error: ")
  message(FATAL_ERROR "parse errors do not name broken.mj: ${degraded_err}")
endif()
file(REMOVE "${app}/broken.mj")

# Chaos containment smoke: same seed, different worker counts, same bytes.
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --json --chaos 42:0.1 --jobs 2
                OUTPUT_VARIABLE chaos_two RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos run (2 jobs) failed: ${rc}")
endif()
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --json --chaos 42:0.1 --jobs 4
                OUTPUT_VARIABLE chaos_four RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos run (4 jobs) failed: ${rc}")
endif()
if(NOT chaos_two STREQUAL chaos_four)
  message(FATAL_ERROR "--chaos output differs between 2 and 4 workers")
endif()

# Option validation: every bad value exits 2 with the usage line.
set(bad_option_sets
    "--jobs;0" "--jobs;-3" "--jobs;abc"
    "--max-quarantined;-1" "--max-quarantined;x"
    "--chaos;banana" "--chaos;42:1.5" "--fail-fast=1")
foreach(bad_args IN LISTS bad_option_sets)
  execute_process(COMMAND "${WASABI_CLI}" test "${app}" ${bad_args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "CLI must exit 2 for '${bad_args}', got ${rc}")
  endif()
  if(NOT err MATCHES "usage: wasabi")
    message(FATAL_ERROR "no usage line for bad option '${bad_args}': ${err}")
  endif()
endforeach()

# Good values of the new flags must be accepted.
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --json --fail-fast
                        --max-quarantined 5 --chaos 7:0
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "CLI rejected valid robustness flags: ${rc}")
endif()
