# One case of the `smoke` ctest label: run a bench or example binary
# on a tiny config.
#
#   cmake -DBIN=<binary> "-DARGS=<args>" [-DCOMPARE_JOBS=ON] \
#         -P smoke.cmake
#
# ARGS is one space-separated string. The binary must exit 0. With
# COMPARE_JOBS it runs twice, with --jobs 1 and with --jobs 4
# appended, and both runs must print the same non-empty stdout.

separate_arguments(args UNIX_COMMAND "${ARGS}")

if (NOT COMPARE_JOBS)
    execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if (NOT rc EQUAL 0)
        message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}")
    endif()
    return()
endif()

foreach (jobs 1 4)
    execute_process(COMMAND ${BIN} ${args} --jobs ${jobs}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out_${jobs})
    if (NOT rc EQUAL 0)
        message(FATAL_ERROR "${BIN} ${ARGS} --jobs ${jobs}: exit ${rc}")
    endif()
endforeach()
if (out_1 STREQUAL "")
    message(FATAL_ERROR "${BIN} ${ARGS}: empty stdout")
endif()
if (NOT out_1 STREQUAL out_4)
    message(FATAL_ERROR "${BIN} ${ARGS}: stdout at --jobs 4 differs "
        "from --jobs 1\n--- jobs 1\n${out_1}\n--- jobs 4\n${out_4}")
endif()
