# Runs PROG with the single argument ARG and passes only if it exits with
# status 2 - the drivers' usage-error status: bad input must be rejected
# with a message, neither run (exit 0) nor abort (a signal).
#
#   cmake -DPROG=<binary> -DARG=<argument> -P expect_exit2.cmake
execute_process(COMMAND "${PROG}" "${ARG}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${PROG} ${ARG}: exit status '${rc}', expected 2\n${err}")
endif()
message(STATUS "${PROG} ${ARG}: exit status 2: ${err}")
