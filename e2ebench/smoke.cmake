# bench.e2e_smoke: run every workload of BENCHMARK.json at toy sizes,
# untraced and traced, and check each result line against the file:
#
#   cmake -DBENCH=<xser-bench> -DBENCHMARK_JSON=<BENCHMARK.json>
#         -DWORKDIR=<scratch dir> -P smoke.cmake
#
# Every run must exit 0 and report correct=true with failed=0, and its
# metrics must be exactly the file's end_to_end (trace 0) or per_layer
# (trace 1) list, each a finite number in the declared unit.

cmake_minimum_required(VERSION 3.19) # string(JSON)

foreach(var BENCH BENCHMARK_JSON WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(READ "${BENCHMARK_JSON}" spec)
string(JSON workload_count LENGTH "${spec}" workloads)
math(EXPR last_workload "${workload_count} - 1")
set(number_regex "^-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][-+]?[0-9]+)?$")

foreach(trace 0 1)
    if(trace EQUAL 0)
        set(list_key end_to_end)
    else()
        set(list_key per_layer)
    endif()
    string(JSON metric_count LENGTH "${spec}" ${list_key})
    math(EXPR last_metric "${metric_count} - 1")

    foreach(w RANGE ${last_workload})
        string(JSON workload GET "${spec}" workloads ${w} name)
        execute_process(
            COMMAND "${BENCH}" run --workload ${workload} --seed 7
                    --seconds 0 --trace ${trace} --smoke
                    --workdir "${WORKDIR}"
            OUTPUT_VARIABLE out
            RESULT_VARIABLE rc)
        string(STRIP "${out}" out)
        string(REGEX MATCH "[^\n]*$" line "${out}")
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "${workload} trace ${trace}: exit ${rc}\n${out}")
        endif()
        string(JSON correct GET "${line}" correct)
        string(JSON failed GET "${line}" failed)
        if(NOT correct OR NOT failed EQUAL 0)
            message(FATAL_ERROR
                    "${workload} trace ${trace}: checks failed\n${out}")
        endif()
        string(JSON printed LENGTH "${line}" metrics)
        if(NOT printed EQUAL metric_count)
            message(FATAL_ERROR "${workload} trace ${trace}: ${printed} "
                                "metrics, BENCHMARK.json lists "
                                "${metric_count}")
        endif()
        foreach(m RANGE ${last_metric})
            string(JSON name GET "${spec}" ${list_key} ${m} name)
            string(JSON unit GET "${spec}" ${list_key} ${m} unit)
            string(JSON value ERROR_VARIABLE missing
                   GET "${line}" metrics ${name} value)
            string(JSON got_unit ERROR_VARIABLE missing_unit
                   GET "${line}" metrics ${name} unit)
            if(missing OR missing_unit OR NOT value MATCHES
                                                "${number_regex}")
                message(FATAL_ERROR "${workload} trace ${trace}: metric "
                                    "${name} missing or not finite")
            endif()
            if(NOT got_unit STREQUAL unit)
                message(FATAL_ERROR "${workload} trace ${trace}: ${name} "
                                    "in ${got_unit}, not ${unit}")
            endif()
        endforeach()
        message(STATUS "${workload} trace ${trace}: ${metric_count} "
                       "metrics, checks pass")
    endforeach()
endforeach()
