# Drives --cache-dir through the CLI on flakylab: for `test --repetitions 2`
# (text and --json) and for `static` (text and --json), stdout must be
# byte-identical with the cache off, cold (populating an empty directory) and
# warm (replaying it). The warm `test` run must also read its one
# dynamic-workflow entry and write nothing: its --metrics-out shows
# cache.hits.camp 1 and cache.puts 0. A journaled run against the warm store
# puts its workflow entry again, with the value the store already holds:
# two such runs must leave entries.tsv byte-identical.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" --app flakylab
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus --app flakylab failed: ${rc}")
endif()
set(app "${WORK_DIR}/flakylab")

# Runs `wasabi <args>` and stores its stdout in `out_var`; any non-zero exit
# is a failure.
function(run_cli out_var)
  execute_process(COMMAND "${WASABI_CLI}" ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "wasabi ${ARGN} exited ${rc}: ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(variant_names test_text test_json static_text static_json)
set(test_text_args test "${app}" --jobs 1 --repetitions 2)
set(test_json_args test "${app}" --jobs 1 --repetitions 2 --json)
set(static_text_args static "${app}")
set(static_json_args static "${app}" --json)

foreach(variant IN LISTS variant_names)
  set(args ${${variant}_args})
  set(cache "${WORK_DIR}/cache_${variant}")
  set(metrics "${WORK_DIR}/metrics_${variant}.json")
  run_cli(off ${args})
  run_cli(cold ${args} "--cache-dir=${cache}")
  run_cli(warm ${args} "--cache-dir=${cache}" "--metrics-out=${metrics}")
  if(NOT cold STREQUAL off)
    message(FATAL_ERROR "${variant}: cold cache changed stdout\n--- off\n${off}\n--- cold\n${cold}")
  endif()
  if(NOT warm STREQUAL off)
    message(FATAL_ERROR "${variant}: warm cache changed stdout\n--- off\n${off}\n--- warm\n${warm}")
  endif()
  file(READ "${metrics}" metrics_text)
  string(JSON puts ERROR_VARIABLE err GET "${metrics_text}" "gauges" "cache.puts")
  if(NOT err STREQUAL "NOTFOUND" OR NOT puts EQUAL 0)
    message(FATAL_ERROR "${variant}: warm run wrote to the cache (cache.puts '${puts}', ${err})")
  endif()
  if(variant MATCHES "^test_")
    string(JSON hits ERROR_VARIABLE err GET "${metrics_text}" "counters" "cache.hits.camp")
    if(NOT err STREQUAL "NOTFOUND" OR NOT hits EQUAL 1)
      message(FATAL_ERROR "${variant}: warm run did not read its workflow entry "
                          "(cache.hits.camp '${hits}', ${err})")
    endif()
  endif()
endforeach()

set(cache "${WORK_DIR}/cache_test_text")
file(READ "${cache}/entries.tsv" warm_entries)
foreach(round 1 2)
  run_cli(journaled test "${app}" --jobs 1 --repetitions 2 "--cache-dir=${cache}"
          "--journal-out=${WORK_DIR}/journal_${round}.json")
  file(READ "${cache}/entries.tsv" entries)
  if(NOT entries STREQUAL warm_entries)
    message(FATAL_ERROR "journaled warm run ${round} appended to ${cache}/entries.tsv")
  endif()
endforeach()
