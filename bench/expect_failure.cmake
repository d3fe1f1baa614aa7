# Run COMMAND with ARGS (one space-separated string) and pass only when it
# fails and its output contains EXPECT. Without EXIT any non-zero exit
# status is a failure; with EXIT the status must equal it.
#   cmake -DCOMMAND=prog "-DARGS=--flag value" -DEXPECT=text [-DEXIT=2]
#         -P expect_failure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${COMMAND} ${args}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(DEFINED EXIT)
  if(NOT result STREQUAL EXIT)
    message(FATAL_ERROR "expected '${COMMAND} ${ARGS}' to exit ${EXIT}, "
                        "it exited ${result}:\n${output}")
  endif()
elseif(result EQUAL 0)
  message(FATAL_ERROR "expected '${COMMAND} ${ARGS}' to fail, it exited 0")
endif()
string(FIND "${output}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output of '${COMMAND} ${ARGS}' does not name "
                      "'${EXPECT}':\n${output}")
endif()
