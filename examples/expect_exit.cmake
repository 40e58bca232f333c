# ctest helper: run COMMAND (one space-separated string) and require exit
# code EXIT_CODE and standard error matching STDERR_REGEX.
#
#   cmake -DCOMMAND="prog --flag 1" -DEXIT_CODE=2 -DSTDERR_REGEX="flag" -P expect_exit.cmake
separate_arguments(argv UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${argv} RESULT_VARIABLE code ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT_CODE}\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
