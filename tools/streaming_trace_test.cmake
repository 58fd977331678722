# Runs streaming_surveillance unpaced with --trace and checks that the trace
# JSON carries the stream pipeline's counters, not only its spans:
#   cmake -DEXAMPLE=<streaming_surveillance> -DOUT=<trace.json> \
#         -P tools/streaming_trace_test.cmake
# Registered with ctest as StreamingTrace.ExportsStreamCounters (see
# examples/CMakeLists.txt). Exits non-zero on the first failed expectation.

cmake_minimum_required(VERSION 3.20)

if(NOT EXAMPLE OR NOT OUT)
  message(FATAL_ERROR "pass -DEXAMPLE=<binary> -DOUT=<trace.json>")
endif()

file(REMOVE "${OUT}")
execute_process(COMMAND "${EXAMPLE}" --trace "${OUT}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}:\n${out}\n${err}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "no trace written to ${OUT}")
endif()

file(READ "${OUT}" json)
string(JSON count LENGTH "${json}" counters)
if(count EQUAL 0)
  message(FATAL_ERROR "trace has no counters")
endif()

set(sealed "")
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${json}" counters ${i} name)
  if(name STREQUAL "stream.windows_sealed")
    string(JSON sealed GET "${json}" counters ${i} value)
  endif()
endforeach()
if(sealed STREQUAL "")
  message(FATAL_ERROR "counter stream.windows_sealed missing from ${OUT}")
endif()
if(NOT sealed GREATER 0)
  message(FATAL_ERROR "stream.windows_sealed is ${sealed}, expected > 0")
endif()
message(STATUS "ok: ${count} counters, stream.windows_sealed = ${sealed}")
