# Runs PROGRAM with the space-separated ARGS and fails unless it exits
# with EXPECTED_EXIT.
#   cmake -DPROGRAM=<path> "-DARGS=<args>" -DEXPECTED_EXIT=<code> -P expect_exit.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${arg_list}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit '${result}', expected "
    "${EXPECTED_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "exit ${result} as expected; stderr:\n${err}")
