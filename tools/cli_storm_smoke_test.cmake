# Storm CLI smoke test (docs/STORM.md). Dumps the stormlab ground-truth app,
# runs `wasabi storm` at several worker counts expecting byte-identical JSON
# reports and journals, checks the text summary names all three seeded storm
# bugs (and only those), that --trace-out records the storm.profile and
# storm.sim spans without touching stdout, and exercises the strict --storm-* flag parser: every
# malformed value must exit 2 with the usage line.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" --app stormlab
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus --app stormlab failed: ${rc}")
endif()
set(app "${WORK_DIR}/stormlab")
if(NOT EXISTS "${app}")
  message(FATAL_ERROR "dump-corpus --app stormlab wrote no ${app} directory")
endif()

# An unknown --app must be rejected up front, before any files are written.
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" --app nosuchapp
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus accepted an unknown --app")
endif()
if(NOT err MATCHES "usage: wasabi")
  message(FATAL_ERROR "no usage line for unknown --app: ${err}")
endif()

# Byte-identity: JSON report + journal at --jobs 1/2/4/8, plus a same-seed
# rerun. Worker count only parallelizes profile extraction; the simulation
# itself is serial, so every artifact must match the --jobs 1 baseline.
execute_process(COMMAND "${WASABI_CLI}" storm "${app}" --jobs 1 --json
                        "--storm-out=${WORK_DIR}/report_j1.json"
                        "--journal-out=${WORK_DIR}/journal_j1.json"
                OUTPUT_VARIABLE baseline RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "storm --jobs 1 failed: ${rc}")
endif()
file(READ "${WORK_DIR}/report_j1.json" baseline_file)
if(NOT baseline_file STREQUAL baseline)
  message(FATAL_ERROR "--storm-out file differs from --json stdout")
endif()
file(READ "${WORK_DIR}/journal_j1.json" baseline_journal)
foreach(jobs IN ITEMS 2 4 8 1)
  execute_process(COMMAND "${WASABI_CLI}" storm "${app}" --jobs ${jobs} --json
                          "--journal-out=${WORK_DIR}/journal_j${jobs}.json"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "storm --jobs ${jobs} failed: ${rc}")
  endif()
  if(NOT out STREQUAL baseline)
    message(FATAL_ERROR "storm report differs at --jobs ${jobs}")
  endif()
  file(READ "${WORK_DIR}/journal_j${jobs}.json" journal)
  if(NOT journal STREQUAL baseline_journal)
    message(FATAL_ERROR "storm journal differs at --jobs ${jobs}")
  endif()
endforeach()

# The text summary must flag exactly the three seeded storm bug classes; the
# healthy gateway frontend must stay clean.
execute_process(COMMAND "${WASABI_CLI}" storm "${app}" --jobs 4
                OUTPUT_VARIABLE text RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "storm text run failed: ${rc}")
endif()

# --trace-out records the two storm layers as spans and leaves stdout alone.
execute_process(COMMAND "${WASABI_CLI}" storm "${app}" --jobs 4
                        "--trace-out=${WORK_DIR}/trace.json"
                OUTPUT_VARIABLE traced_text RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "storm --trace-out failed: ${rc}")
endif()
if(NOT traced_text STREQUAL text)
  message(FATAL_ERROR "--trace-out changed the storm summary")
endif()
file(READ "${WORK_DIR}/trace.json" trace)
foreach(span IN ITEMS "\"storm.profile\"" "\"storm.sim\"")
  string(FIND "${trace}" "${span}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "storm --trace-out has no ${span} span")
  endif()
endforeach()
foreach(expected IN ITEMS
        "STORM/missing-jitter" "STORM/unbounded-fanout" "STORM/retry-on-overload"
        "metastable=yes")
  if(NOT text MATCHES "${expected}")
    message(FATAL_ERROR "storm summary is missing '${expected}':\n${text}")
  endif()
endforeach()
if(text MATCHES "bug [^\n]*Gateway")
  message(FATAL_ERROR "storm summary flags the healthy gateway:\n${text}")
endif()

# A shorter fault window is accepted and still renders a well-formed report.
execute_process(COMMAND "${WASABI_CLI}" storm "${app}" --storm-seed 9
                        --storm-duration 12000 --storm-fault 2000:4000 --json
                OUTPUT_VARIABLE short_run RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "storm with explicit window failed: ${rc}")
endif()
if(NOT short_run MATCHES "\"duration_ms\": 12000")
  message(FATAL_ERROR "explicit --storm-duration not echoed in the report")
endif()

# Strict flag parsing: every malformed --storm-* value, a --storm-* flag
# without a storm context, and --app outside dump-corpus exit 2 with usage.
foreach(bad_args IN ITEMS
        "storm;${app};--storm-seed;x" "storm;${app};--storm-seed;-1"
        "storm;${app};--storm-seed" "storm;${app};--storm-duration;0"
        "storm;${app};--storm-duration;-5" "storm;${app};--storm-duration;x"
        "storm;${app};--storm-fault;5000" "storm;${app};--storm-fault;5000:1000"
        "storm;${app};--storm-fault;-1:2000" "storm;${app};--storm-fault;a:b"
        "storm;${app};--storm-fault;1000:90000" "storm;${app};--storm-out="
        "storm;${app};--storm;extra" "dump-corpus;${WORK_DIR};--app;"
        "dump-corpus;${WORK_DIR};--storm" "test;${app};--storm-seed;7"
        "test;${app};--app;stormlab")
  execute_process(COMMAND "${WASABI_CLI}" ${bad_args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "CLI did not exit 2 for '${bad_args}' (rc=${rc})")
  endif()
  if(NOT err MATCHES "usage: wasabi")
    message(FATAL_ERROR "no usage line for '${bad_args}': ${err}")
  endif()
endforeach()
