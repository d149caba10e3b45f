# Run one command-line invocation and check its exact exit code and,
# optionally, its stdout and stderr. Used by ctest entries for the CLI tools:
#
#   cmake -DCMD=<binary> "-DARGS=<space-separated args>" -DEXPECT_EXIT=<n>
#         [-DEXPECT_STDOUT=<regex>] [-DEXPECT_STDERR=<regex>]
#         [-DFRESH=<path>] ["-DSETUP_ARGS=<args>"] -P cli_expect.cmake
#
# FRESH names a file removed first. SETUP_ARGS runs CMD once before the
# checked run and must exit 0 (e.g. writing a journal the run resumes).
#
# An exact exit code (not just "nonzero") tells a usage error (2) apart
# from a crash: a process killed by a signal reports no number at all.

if(DEFINED FRESH)
  file(REMOVE "${FRESH}")
endif()
if(DEFINED SETUP_ARGS)
  separate_arguments(setup_args UNIX_COMMAND "${SETUP_ARGS}")
  execute_process(COMMAND "${CMD}" ${setup_args}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "setup exit status '${rc}', want 0\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
endif()
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
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
