# Runs CMD (a list: program, then arguments) and fails unless it exits 0
# and its standard output equals the file GOLDEN byte for byte. The output
# is kept in ACTUAL; on a mismatch it is diffed against GOLDEN.
#
# Optional MASK is a regular expression for lines that legitimately vary
# between runs (a measured timing). Before the comparison each output line
# that matches it is replaced by the one placeholder line "<masked>", and
# the golden file stores that placeholder.
#
#   cmake "-DCMD=prog;arg1" -DGOLDEN=want.txt -DACTUAL=got.txt \
#         [-DMASK=regex] -P scripts/expect_golden.cmake
execute_process(COMMAND ${CMD} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE status)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "exit status '${status}', expected 0")
endif()
if(DEFINED MASK)
  file(READ ${ACTUAL} rest)
  set(masked "")
  while(NOT rest STREQUAL "")
    string(FIND "${rest}" "\n" eol)
    if(eol EQUAL -1)
      set(line "${rest}")
      set(newline "")
      set(rest "")
    else()
      string(SUBSTRING "${rest}" 0 ${eol} line)
      math(EXPR next "${eol} + 1")
      string(SUBSTRING "${rest}" ${next} -1 rest)
      set(newline "\n")
    endif()
    if(line MATCHES "${MASK}")
      set(line "<masked>")
    endif()
    string(APPEND masked "${line}${newline}")
  endwhile()
  file(WRITE ${ACTUAL} "${masked}")
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
