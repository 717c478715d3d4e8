# Runs a command given bad input and requires it to refuse: exit status
# 2 and "usage" in its output, within 10 s.
#
#   cmake -P tests/expect_usage_error.cmake -- <command> [args...]
cmake_minimum_required(VERSION 3.20)

set(command "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command} OUTPUT_VARIABLE out ERROR_VARIABLE out
                RESULT_VARIABLE rc TIMEOUT 10)
message("${out}")
if(NOT rc EQUAL 2 OR NOT out MATCHES "usage")
  message(FATAL_ERROR "expected exit 2 and a usage message, got '${rc}'")
endif()
