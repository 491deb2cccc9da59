# Runs CMD (a list: program, then arguments) and fails unless it exits 0
# and its standard output equals the file GOLDEN byte for byte. The output
# is kept in ACTUAL; on a mismatch it is diffed against GOLDEN.
#
#   cmake "-DCMD=prog;arg1" -DGOLDEN=want.txt -DACTUAL=got.txt \
#         -P scripts/expect_golden.cmake
execute_process(COMMAND ${CMD} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE status)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "exit status '${status}', expected 0")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${ACTUAL})
  endif()
  message(FATAL_ERROR "output differs from ${GOLDEN} (got ${ACTUAL})")
endif()
