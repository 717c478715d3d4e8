# Figure-output gate: runs a bench and requires its stdout to equal a
# committed golden file byte for byte.
#
#   cmake -P bench/compare_golden.cmake -- <golden.txt> <command> [args...]
#
# The bench is named after the golden file.  On a mismatch the script
# fails and prints the bench name and the first differing line.  The
# goldens are bench/golden/<bench>.txt, each the stdout of
# `<bench> --scale 0.1 --seed 1`; regenerate one on purpose (and say why
# in CHANGES.md) with
#
#   build/bench/<bench> --scale 0.1 --seed 1 > bench/golden/<bench>.txt
cmake_minimum_required(VERSION 3.20)

# Everything after `--`: the golden path, then the command.
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
list(POP_FRONT command golden)
if(NOT command)
  message(FATAL_ERROR
    "usage: cmake -P compare_golden.cmake -- <golden> <command> [args...]")
endif()
get_filename_component(bench "${golden}" NAME_WE)

execute_process(COMMAND ${command} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${bench}: command failed (${rc})")
endif()
file(READ "${golden}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Peel both texts a line at a time, newline included (so a lost final
# newline is a difference too), up to the first line that differs.  The
# texts differ, so the loop stops before both run out.
set(line 1)
while(TRUE)
  foreach(side expected actual)
    string(FIND "${${side}}" "\n" nl)
    if(nl EQUAL -1)
      set(${side}_line "${${side}}")
      set(${side} "")
    else()
      math(EXPR nl "${nl} + 1")
      string(SUBSTRING "${${side}}" 0 ${nl} ${side}_line)
      string(SUBSTRING "${${side}}" ${nl} -1 ${side})
    endif()
  endforeach()
  if(NOT expected_line STREQUAL actual_line)
    break()
  endif()
  math(EXPR line "${line} + 1")
endwhile()

foreach(side expected actual)
  if("${${side}_line}" STREQUAL "")
    set(${side}_line "<end of output>")
  elseif("${${side}_line}" MATCHES "\n$")
    string(REGEX REPLACE "\n$" "" ${side}_line "${${side}_line}")
  else()
    string(APPEND ${side}_line "<no final newline>")
  endif()
endforeach()
message("${bench}: first differing line ${line}\n"
        "  golden: ${expected_line}\n"
        "  actual: ${actual_line}")
message(FATAL_ERROR "${bench}: output differs from ${golden}")
