# Runs a command and checks its exit code and output; used by the socbench
# CLI tests in tools/CMakeLists.txt.
#
#   cmake -DCMD=<exe|arg|arg...> -DEXPECT_EXIT=<code> [-DSETUP=<exe|arg...>]
#         [-DEXPECT_STDOUT=<regex>] [-DEXPECT_STDERR=<regex>]
#         -P expect_exit.cmake
#
# CMD separates its arguments with '|' (a ';' would split the -D value).
# SETUP, when given, runs first and must exit 0 (e.g. recording a trace
# that CMD reads).
if(DEFINED SETUP)
  string(REPLACE "|" ";" setup "${SETUP}")
  execute_process(COMMAND ${setup}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR "setup exit ${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endif()
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}':\n${out}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
