# Runs CMD (a list: program, then arguments) and fails unless it exits with
# status EXPECT_CODE. A crash yields a non-numeric status, so it fails too.
#
#   cmake -DEXPECT_CODE=3 "-DCMD=prog;arg1;arg2" -P scripts/expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE status)
if(NOT status STREQUAL EXPECT_CODE)
  message(FATAL_ERROR "exit status '${status}', expected ${EXPECT_CODE}")
endif()
