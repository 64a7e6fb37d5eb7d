# Repair CLI smoke test (docs/REPAIR.md). Dumps the repairlab ground-truth
# app, runs `wasabi repair` expecting byte-identical JSON at several worker
# counts and with the observability sinks armed (stdout neutrality), checks
# the text summary scores the seeded manifest exactly and is unchanged by
# --trace-out (whose trace holds the repair.* spans), and exercises the
# strict flag parser: misplaced or malformed --repair-out/--storm-out values
# must exit 2 with the usage line.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" --app repairlab
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus --app repairlab failed: ${rc}")
endif()
set(app "${WORK_DIR}/repairlab")
if(NOT EXISTS "${app}")
  message(FATAL_ERROR "dump-corpus --app repairlab wrote no ${app} directory")
endif()

# Byte-identity: the JSON report at --jobs 1/2/4/8 plus a same-seed rerun, and
# --repair-out must hold exactly the --json stdout bytes.
execute_process(COMMAND "${WASABI_CLI}" repair "${app}" --jobs 1 --json
                        "--repair-out=${WORK_DIR}/report_j1.json"
                OUTPUT_VARIABLE baseline RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "repair --jobs 1 failed: ${rc}")
endif()
file(READ "${WORK_DIR}/report_j1.json" baseline_file)
if(NOT baseline_file STREQUAL baseline)
  message(FATAL_ERROR "--repair-out file differs from --json stdout")
endif()
foreach(jobs IN ITEMS 2 4 8 1)
  execute_process(COMMAND "${WASABI_CLI}" repair "${app}" --jobs ${jobs} --json
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "repair --jobs ${jobs} failed: ${rc}")
  endif()
  if(NOT out STREQUAL baseline)
    message(FATAL_ERROR "repair report differs at --jobs ${jobs}")
  endif()
endforeach()

# Instrumentation sinks must not leak into stdout: the JSON bytes with
# --trace-out/--metrics-out/--journal-out/--progress armed must equal the
# bare run, and the sink files must exist afterwards.
execute_process(COMMAND "${WASABI_CLI}" repair "${app}" --json
                        "--trace-out=${WORK_DIR}/trace.json"
                        "--metrics-out=${WORK_DIR}/metrics.json"
                        "--journal-out=${WORK_DIR}/journal.json"
                        --progress
                OUTPUT_VARIABLE instrumented RESULT_VARIABLE rc
                ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "instrumented repair run failed: ${rc}")
endif()
if(NOT instrumented STREQUAL baseline)
  message(FATAL_ERROR "observability flags changed the repair JSON on stdout")
endif()
foreach(sink IN ITEMS trace.json metrics.json journal.json)
  if(NOT EXISTS "${WORK_DIR}/${sink}")
    message(FATAL_ERROR "instrumented repair run wrote no ${sink}")
  endif()
endforeach()
file(READ "${WORK_DIR}/metrics.json" metrics)
if(NOT metrics MATCHES "repair\\.fixed")
  message(FATAL_ERROR "metrics snapshot is missing the repair.* gauges:\n${metrics}")
endif()

# The text summary must score the seeded manifest exactly: every
# template-fixable bug fixed, nothing regressed, and only the unbounded
# fan-out (which has no template) left behind.
execute_process(COMMAND "${WASABI_CLI}" repair "${app}" --jobs 4
                OUTPUT_VARIABLE text RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "repair text run failed: ${rc}")
endif()
foreach(expected IN ITEMS
        "WASABI repair: app=repairlab"
        "confirmed=8 eligible=7 patched=7"
        "fixed=7 not-fixed=0 regressed=0 no-template=1"
        "template=bound-retry" "template=add-backoff" "template=add-jitter"
        "template=shed-on-overload")
  if(NOT text MATCHES "${expected}")
    message(FATAL_ERROR "repair summary is missing '${expected}':\n${text}")
  endif()
endforeach()
if(text MATCHES "\\[regressed\\]")
  message(FATAL_ERROR "repair summary reports a regression on the clean lab:\n${text}")
endif()

# The text summary is stdout-neutral to --trace-out too, and the trace covers
# the repair loop: its baseline and, per patched bug, the validation pass.
execute_process(COMMAND "${WASABI_CLI}" repair "${app}" --jobs 4
                        "--trace-out=${WORK_DIR}/text_trace.json"
                OUTPUT_VARIABLE traced_text RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced repair text run failed: ${rc}")
endif()
if(NOT traced_text STREQUAL text)
  message(FATAL_ERROR "--trace-out changed the repair text summary")
endif()
file(READ "${WORK_DIR}/text_trace.json" trace)
foreach(span IN ITEMS repair.baseline repair.patch repair.validate repair.pipeline
                      repair.clean_suite repair.k1_probes)
  if(NOT trace MATCHES "\"${span}\"")
    message(FATAL_ERROR "repair trace has no ${span} span")
  endif()
endforeach()

# Strict flag parsing: a --repair-out without a value or with an empty value,
# the flag on any other command, and storm-only flags on repair all exit 2
# with the usage line.
foreach(bad_args IN ITEMS
        "repair;${app};--repair-out" "repair;${app};--repair-out="
        "test;${app};--repair-out;x.json" "storm;${app};--repair-out;x.json"
        "report;${WORK_DIR}/r.html;--repair-out;x.json"
        "repair;${app};--storm-out;x.json" "repair;${app};extra"
        "repair;${app};--app;repairlab" "repair")
  execute_process(COMMAND "${WASABI_CLI}" ${bad_args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "CLI did not exit 2 for '${bad_args}' (rc=${rc})")
  endif()
  if(NOT err MATCHES "usage: wasabi")
    message(FATAL_ERROR "no usage line for '${bad_args}': ${err}")
  endif()
endforeach()

# Storm value flags are shared with the repair validator's storm phase, so
# they stay legal here.
execute_process(COMMAND "${WASABI_CLI}" repair "${app}" --storm-seed 7 --json
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "repair rejected the shared --storm-seed flag: ${rc}")
endif()
