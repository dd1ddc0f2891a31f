# Run bench_paper and require exit status 0 and every paper artifact's
# section title in its output. Run as a ctest:
#
#   cmake -DBENCH=<bench_paper> -P check_paper_smoke.cmake
#
# with XSER_SCALE / XSER_JOBS set in the environment. A plain
# PASS_REGULAR_EXPRESSION would ignore the exit status.

if(NOT DEFINED BENCH)
    message(FATAL_ERROR "usage: cmake -DBENCH=<bin> -P "
                        "check_paper_smoke.cmake")
endif()

execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "${BENCH} exited ${status} (must be 0):\n${err}\n${out}")
endif()

foreach(title
        "Table 1: X-Gene 2 specification"
        "Fig. 4: Probability of Failure vs voltage"
        "Table 2: Neutron Beam Time Sessions"
        "Fig. 5: upsets/min per benchmark (2.4 GHz)"
        "Fig. 6: upsets/min per cache level (2.4 GHz)"
        "Fig. 7: upsets/min per cache level (900 MHz)"
        "Fig. 8: failure-type breakdown (2.4 GHz)"
        "Fig. 9: power vs soft-error susceptibility"
        "Fig. 10: power savings vs susceptibility increase"
        "Fig. 11: FIT rates per category (2.4 GHz)"
        "Fig. 12: SDC FIT by notification class (2.4 GHz)"
        "Fig. 13: SDC FIT by notification class (900 MHz)"
        "Baseline: raw-SER extrapolation vs full system"
        "Scorecard: the paper's nine Observations")
    string(FIND "${out}" "=== ${title} ===" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
                "${BENCH} printed no \"${title}\" section:\n${out}")
    endif()
endforeach()
