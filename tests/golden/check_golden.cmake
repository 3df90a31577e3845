# Runs a deterministic bench binary and byte-compares its stdout against a
# checked-in golden file; any difference fails the test and prints a diff.
# When MASK is given, every match of that regex in the output is rewritten
# to REPLACE first (backreferences allowed), so run-dependent fields such
# as wall-clock columns drop out of the comparison.
#
# Usage: cmake -DBIN=<executable> -DGOLDEN=<golden file> -DOUT=<output file>
#              [-DMASK=<regex> -DREPLACE=<replacement>] -P check_golden.cmake

execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()

if(MASK)
  file(READ "${OUT}" text)
  string(REGEX REPLACE "${MASK}" "${REPLACE}" text "${text}")
  file(WRITE "${OUT}" "${text}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
