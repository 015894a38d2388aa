# Runs PROGRAM with ARGS and fails unless it exits 0 and its stdout equals
# the file GOLDEN byte for byte. On a mismatch the actual output is written
# next to the test's working directory for diffing.
#
#   cmake -DPROGRAM=<exe> -DARGS="<args>" -DGOLDEN=<file> -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; actual output in "
                      "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
