# Test runner for veridp_cli smoke tests: asserts the command BOTH
# exits with the expected code (0 unless -DRC says otherwise) AND prints
# the expected line(s) on stdout (EXPECT*) or stderr (EXPECT_ERR).
# ctest's PASS_REGULAR_EXPRESSION property *replaces* the exit-code
# check (a crashing run that already printed the line would pass), so
# the CLI smoke tests go through this script instead:
#
#   cmake -DCLI=<exe> -DARGS="<args>" -DEXPECT=<regex>
#         [-DEXPECT2=<regex>] [-DEXPECT3=<regex>] [-DEXPECT_ERR=<regex>]
#         [-DRC=<exit code>] -P run_cli_check.cmake
if(NOT DEFINED CLI OR NOT DEFINED ARGS
   OR NOT (DEFINED EXPECT OR DEFINED EXPECT_ERR))
  message(FATAL_ERROR
          "run_cli_check: need -DCLI, -DARGS and -DEXPECT or -DEXPECT_ERR")
endif()
if(NOT DEFINED RC)
  set(RC 0)
endif()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${arg_list}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)

if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "run_cli_check: '${CLI} ${ARGS}' exited with "
                      "'${rc}', expected '${RC}'\n--- stdout ---\n${out}\n"
                      "--- stderr ---\n${err}")
endif()

foreach(var EXPECT EXPECT2 EXPECT3)
  if(DEFINED ${var} AND NOT out MATCHES "${${var}}")
    message(FATAL_ERROR "run_cli_check: '${CLI} ${ARGS}' exited ${RC} but "
                        "its output does not match /${${var}}/\n"
                        "--- stdout ---\n${out}")
  endif()
endforeach()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "run_cli_check: '${CLI} ${ARGS}' exited ${RC} but "
                      "its stderr does not match /${EXPECT_ERR}/\n"
                      "--- stderr ---\n${err}")
endif()
