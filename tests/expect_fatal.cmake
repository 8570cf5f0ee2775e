# Pass only when a command fails the way fatal() does: exit status 1
# and a diagnostic matching EXPECT on stdout or stderr. A ctest
# PASS_REGULAR_EXPRESSION alone would ignore the exit status, and an
# uncaught exception prints the same what() before it aborts.
#
#   cmake -DEXPECT=<regex> -P expect_fatal.cmake -- <program> [args...]

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
if(NOT command OR NOT DEFINED EXPECT)
    message(FATAL_ERROR
        "usage: cmake -DEXPECT=<regex> -P expect_fatal.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit status 1, got '${status}'; "
                        "output:\n${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
    message(FATAL_ERROR "output does not match '${EXPECT}':\n${output}")
endif()
