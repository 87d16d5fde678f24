# Runs gmorph_cli once and checks its exit code and output: the pins on the
# CLI surface (mode dispatch, argument checks, config validation).
#
# Invoked by ctest as:
#   cmake -DCLI=<gmorph_cli> "-DARGS=<arg>;..." -DEXPECT_RC=<n> -DEXPECT=<regex>
#         [-DREJECT=<regex>] [-DOUT_DIR=<dir> -DNAME=<name>
#          ("-DCFG_LINES=<key = value>;..." | -DDEFAULT_CONFIG=ON)]
#         -P run_cli_expect.cmake
#
# With CFG_LINES, the lines are written to ${OUT_DIR}/${NAME}.cfg; with
# DEFAULT_CONFIG, that file holds the `--print-default-config` output. Either
# way its path is appended to ARGS. EXPECT must match, and REJECT must not
# match, the combined stdout and stderr.

if(DEFINED CFG_LINES OR DEFAULT_CONFIG)
  set(CFG_FILE "${OUT_DIR}/${NAME}.cfg")
  if(DEFAULT_CONFIG)
    execute_process(
      COMMAND "${CLI}" "--print-default-config"
      RESULT_VARIABLE default_rc
      OUTPUT_FILE "${CFG_FILE}")
    if(NOT default_rc EQUAL 0)
      message(FATAL_ERROR "--print-default-config exited ${default_rc}")
    endif()
  else()
    string(REPLACE ";" "\n" cfg_text "${CFG_LINES}")
    file(WRITE "${CFG_FILE}" "${cfg_text}\n")
  endif()
  list(APPEND ARGS "${CFG_FILE}")
endif()

execute_process(
  COMMAND "${CLI}" ${ARGS}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
set(output "${run_out}${run_err}")
if(NOT run_rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "gmorph_cli ${ARGS} exited ${run_rc}, want ${EXPECT_RC}:\n${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "gmorph_cli ${ARGS} output does not match '${EXPECT}':\n${output}")
endif()
if(DEFINED REJECT AND output MATCHES "${REJECT}")
  message(FATAL_ERROR "gmorph_cli ${ARGS} output matches '${REJECT}':\n${output}")
endif()
