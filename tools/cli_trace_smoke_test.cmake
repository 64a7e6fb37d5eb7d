# Runs the dynamic workflow on the smallest corpus app with --trace-out and
# --metrics-out, checks both files parse as JSON (CMake's string(JSON) is a
# strict parser), checks the loader's load.* spans are in the trace, and
# checks instrumentation leaves stdout byte-identical.
# Also exercises the strict flag parser: unknown options (including the
# retired --engine), a valueless --jobs and out-of-range integers must exit 2
# with the usage line.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus failed: ${rc}")
endif()

set(app "${WORK_DIR}/mapred")
set(trace_file "${WORK_DIR}/trace.json")
set(metrics_file "${WORK_DIR}/metrics.json")

execute_process(COMMAND "${WASABI_CLI}" test "${app}" --json --jobs 2
                        "--trace-out=${trace_file}" "--metrics-out=${metrics_file}"
                OUTPUT_VARIABLE instrumented RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "instrumented run failed: ${rc}")
endif()
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --json --jobs 2
                OUTPUT_VARIABLE plain RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninstrumented run failed: ${rc}")
endif()
if(NOT instrumented STREQUAL plain)
  message(FATAL_ERROR "--trace-out/--metrics-out changed stdout")
endif()

foreach(output IN ITEMS "${trace_file}" "${metrics_file}")
  if(NOT EXISTS "${output}")
    message(FATAL_ERROR "missing output file ${output}")
  endif()
  file(READ "${output}" text)
  # string(JSON ...) raises a fatal error itself on malformed input; the
  # explicit ERROR_VARIABLE turns that into a readable assertion.
  string(JSON kind ERROR_VARIABLE err TYPE "${text}")
  if(NOT err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "${output} is not valid JSON: ${err}")
  endif()
  if(NOT kind STREQUAL "OBJECT")
    message(FATAL_ERROR "${output} top level is ${kind}, expected OBJECT")
  endif()
endforeach()

file(READ "${trace_file}" trace_text)
string(JSON event_count ERROR_VARIABLE err LENGTH "${trace_text}" "traceEvents")
if(NOT err STREQUAL "NOTFOUND" OR event_count EQUAL 0)
  message(FATAL_ERROR "trace has no traceEvents (count='${event_count}', err='${err}')")
endif()

# The loader records its phases as spans of their own, so a trace splits the
# front end (walk and read, lex and parse, index) from the analysis.
foreach(span IN ITEMS load.read load.parse load.index)
  string(FIND "${trace_text}" "\"name\":\"${span}\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "trace has no ${span} span")
  endif()
endforeach()

file(READ "${metrics_file}" metrics_text)
string(JSON runs ERROR_VARIABLE err GET "${metrics_text}" "counters" "campaign.runs_total")
if(NOT err STREQUAL "NOTFOUND" OR runs LESS_EQUAL 0)
  message(FATAL_ERROR "metrics missing campaign.runs_total (got '${runs}', err='${err}')")
endif()

# Flag-parser rejection paths: each must exit 2 and print usage. Integer
# values outside their type's range must fail while parsing, before any pool
# exists, instead of wrapping (--jobs=4294967297 once ran on 1 worker) or
# saturating (the --chaos seed).
foreach(bad_args IN ITEMS "--trace-ot=x.json" "--jobs" "--json=1" "--engine=tree"
                          "--jobs=4294967297" "--jobs=2147483648" "--jobs=+2"
                          "--repetitions=4294967297" "--scale=4294967296"
                          "--chaos=-1:0.3" "--chaos=99999999999999999999:0.3")
  execute_process(COMMAND "${WASABI_CLI}" test "${app}" ${bad_args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "CLI exited ${rc}, not 2, for bad option '${bad_args}'")
  endif()
  if(NOT err MATCHES "usage: wasabi")
    message(FATAL_ERROR "no usage line for bad option '${bad_args}': ${err}")
  endif()
endforeach()
