# One negative command-line case: run a binary with arguments it must
# reject.
#
#   cmake -DBIN=<binary> "-DARGS=<args>" "-DEXPECT=<regex>" \
#         -P expect_fatal.cmake
#
# ARGS is one space-separated string. The binary must exit non-zero
# (fatal() aborts it) and print a `fatal:` line on stderr that
# matches EXPECT. A non-empty RC pins the exit status as well.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
if (rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS}: exit 0, want a fatal error")
endif()
if (NOT RC STREQUAL "" AND NOT rc EQUAL RC)
    message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, want ${RC}")
endif()
if (NOT err MATCHES "fatal: [^\n]*${EXPECT}")
    message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, but stderr has "
        "no fatal line matching '${EXPECT}':\n${err}")
endif()
