# How the loader names an app and its files (tools/wasabi_cli.cc, LoadProgram):
#   1. one app given as `dir`, `dir/`, `./dir` and as an absolute path gives
#      byte-identical `static --json` output, app name included;
#   2. a symlinked source file is named by its own path below the app, not by
#      its target's path (which may lie outside the app and collide with the
#      name of a real file there). The linked file does not parse, so its name
#      shows in the skip warning, in its parse errors and in skipped_files.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" --app mapred
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus failed: ${rc}")
endif()

set(reference "")
foreach(spelling IN ITEMS "mapred" "mapred/" "./mapred" "${WORK_DIR}/mapred")
  execute_process(COMMAND "${WASABI_CLI}" static "${spelling}" --json
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "static ${spelling} failed (${rc}): ${err}")
  endif()
  if(reference STREQUAL "")
    set(reference "${out}")
    string(JSON app ERROR_VARIABLE json_err GET "${out}" 0 "app")
    if(NOT app STREQUAL "mapred")
      message(FATAL_ERROR "static ${spelling} names the app '${app}' (${json_err})")
    endif()
  elseif(NOT out STREQUAL reference)
    message(FATAL_ERROR "static --json differs when the app is given as '${spelling}'")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}/other")
file(WRITE "${WORK_DIR}/other/CacheCodec.mj" "class CacheCodec { void f( }\n")
file(CREATE_LINK "../other/CacheCodec.mj" "${WORK_DIR}/mapred/CacheCodec.mj" SYMBOLIC)
execute_process(COMMAND "${WASABI_CLI}" static mapred --json
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "static with a symlinked file failed (${rc}): ${err}")
endif()
string(JSON skipped_path ERROR_VARIABLE json_err GET "${out}" "skipped_files" 0 "path")
if(NOT skipped_path STREQUAL "CacheCodec.mj")
  message(FATAL_ERROR "skipped_files names '${skipped_path}', not CacheCodec.mj (${json_err})")
endif()
if(NOT err MATCHES "warning: skipping CacheCodec\\.mj \\(")
  message(FATAL_ERROR "skip warning does not name CacheCodec.mj: ${err}")
endif()
if(NOT err MATCHES "(^|\n)CacheCodec\\.mj:1:[0-9]+: error: ")
  message(FATAL_ERROR "parse errors do not name CacheCodec.mj: ${err}")
endif()
if(err MATCHES "other/")
  message(FATAL_ERROR "stderr names the symlink's target: ${err}")
endif()
