# Pass only when a command exits 0 and its standard output, minus the
# `[sweep]` footer lines (they carry wall time), equals a golden file
# byte for byte. On a mismatch, name the first line that differs.
#
#   cmake -DGOLDEN=<file> -P expect_golden.cmake -- <program> [args...]

cmake_minimum_required(VERSION 3.16)

set(command "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()
if(NOT command OR NOT DEFINED GOLDEN)
    message(FATAL_ERROR
        "usage: cmake -DGOLDEN=<file> -P expect_golden.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "expected exit status 0, got '${status}'; "
                        "stderr:\n${errors}")
endif()

# Drop whole `[sweep]` lines: anchor each on the newline before it.
string(REGEX REPLACE "\n\\[sweep\\][^\n]*" "" actual "\n${actual}")
string(SUBSTRING "${actual}" 1 -1 actual)

file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
    return()
endif()

# Walk both texts line by line to the first difference.
set(line 1)
while(TRUE)
    foreach(side actual expected)
        string(FIND "${${side}}" "\n" end)
        if(end EQUAL -1)
            set(${side}_line "${${side}}")
            set(${side}_rest "")
        else()
            string(SUBSTRING "${${side}}" 0 ${end} ${side}_line)
            math(EXPR next "${end} + 1")
            string(SUBSTRING "${${side}}" ${next} -1 ${side}_rest)
        endif()
    endforeach()
    if(NOT actual_line STREQUAL expected_line
       OR (actual_rest STREQUAL "" AND expected_rest STREQUAL ""))
        break()
    endif()
    set(actual "${actual_rest}")
    set(expected "${expected_rest}")
    math(EXPR line "${line} + 1")
endwhile()
set(note "")
if(actual_line STREQUAL expected_line)
    set(note " (only the final newline differs)")
endif()
message(FATAL_ERROR "output differs from ${GOLDEN} at line ${line}${note}:\n"
                    "  expected: ${expected_line}\n"
                    "  actual:   ${actual_line}")
