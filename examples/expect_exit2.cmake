# Runs PROG with the arguments in ARGS (space-separated) and passes only
# if it exits with status 2 - the drivers' usage-error status: bad input
# must be rejected with a message, neither run (exit 0) nor abort (a
# signal).
#
#   cmake -DPROG=<binary> "-DARGS=<arg> [<arg>...]" -P expect_exit2.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${PROG} ${ARGS}: exit status '${rc}', expected 2\n${err}")
endif()
message(STATUS "${PROG} ${ARGS}: exit status 2: ${err}")
