# Run one command-line invocation and check its exact exit code and,
# optionally, its stdout. Used by ctest entries for the CLI tools:
#
#   cmake -DCMD=<binary> "-DARGS=<space-separated args>" -DEXPECT_EXIT=<n>
#         [-DEXPECT_STDOUT=<regex>] -P cli_expect.cmake
#
# An exact exit code (not just "nonzero") tells a usage error (2) apart
# from a crash: a process killed by a signal reports no number at all.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status '${rc}', want ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}':\n${out}")
endif()
