# The command-line contract every bench and example keeps through
# common::run_main, checked on the built binaries:
#
#   cmake -P cli_contract.cmake -- <program> [<program> ...]
#
# For each program:
#   1. `help=1` exits 0, prints the key list on stdout and nothing on stderr;
#   2. an unknown key exits 1;
#   3. a value that only fails after the parse exits 1 (`width=0` for every
#      Scenario-driven program, a per-program key for the others below);
#   4. a Scenario-driven program rejects an unknown traffic pattern
#      (`workload=synthetic pattern=nosuch`, so the pattern is read even
#      where a program's default workload is an app) with exit 1;
#   5. the extension figures reject an unknown name in a list key
#      (`workloads=`, `layouts=`, `topologies=`, `routings=`, fig13's
#      `fault_specs=`), with a reason that starts with that key and names
#      no C++ function, and fig11/fig12 a `trace_file=` they cannot write;
#   6. perf_baseline rejects an `out=` path it cannot open and a `compare=`
#      file that is not a baseline before its sweep;
# and every failing run prints exactly one `<program>: <reason>` line on
# stderr, no "terminate called", and nothing on stdout, so no banner is
# printed and no simulation starts before the input is rejected.

set(programs "")
set(after_dashdash FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashdash)
    list(APPEND programs "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashdash TRUE)
  endif()
endforeach()
if(NOT programs)
  message(FATAL_ERROR "usage: cmake -P cli_contract.cmake -- <program>...")
endif()

# The post-parse error per program; programs without keys of their own
# have none. Every other program is Scenario-driven.
set(post_parse_fig5_vf_curve "vstep=0")
set(post_parse_fig9_appgraphs "apps=nosuch")
set(post_parse_perf_baseline "repeats=abc")
set(post_parse_saturation_probe "knee=abc")
set(post_parse_quickstart "")
set(post_parse_thermal_throttle "")
set(post_parse_vfi_hotspot "")

# List-key values naming one unknown entry, per program.
set(bad_lists_fig11_vfi "workloads=hotspot,nosuch" "layouts=global,nosuch")
set(bad_lists_fig12_thermal "workloads=hotspot,nosuch" "layouts=global,nosuch")
set(bad_lists_fig13_topology "topologies=mesh,nosuch" "routings=xy,nosuch"
    "fault_specs=off,links:nosuch")
set(bad_lists_fig14_tail_latency "topologies=mesh,nosuch")

set(failures 0)
macro(fail msg)
  message(SEND_ERROR "${name} ${arg}: ${msg}")
  math(EXPR failures "${failures} + 1")
endmacro()

# Runs `<program> <arg>`, leaving its exit code, stdout and stderr in rc,
# out and err.
macro(run arg)
  execute_process(COMMAND "${program}" ${arg} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 60)
endmacro()

# A rejected input: exit 1, one `<program>: <reason>` line on stderr,
# nothing on stdout.
macro(expect_error arg)
  run("${arg}")
  if(NOT rc EQUAL 1)
    fail("exit ${rc}, expected 1 (stderr: ${err})")
  elseif(err MATCHES "terminate called")
    fail("an exception escaped main: ${err}")
  elseif(NOT err MATCHES "^${name}: [^\n]+\n$")
    fail("stderr is not one '${name}: <reason>' line: ${err}")
  elseif(NOT out STREQUAL "")
    fail("printed to stdout before rejecting its input: ${out}")
  endif()
endmacro()

foreach(program IN LISTS programs)
  get_filename_component(name "${program}" NAME_WE)

  set(arg "help=1")
  run("${arg}")
  if(NOT rc EQUAL 0 OR NOT out MATCHES "help = 1" OR NOT err STREQUAL "")
    fail("exit ${rc}, expected 0 with the key list on stdout (stderr: ${err})")
  endif()

  set(arg "nosuchkey=1")
  expect_error("${arg}")
  if(NOT err MATCHES "unknown key 'nosuchkey'")
    fail("the reason does not name the unknown key: ${err}")
  endif()

  if(DEFINED post_parse_${name})
    set(arg "${post_parse_${name}}")
  else()
    set(arg "width=0")
  endif()
  if(NOT arg STREQUAL "")
    expect_error("${arg}")
    if(err MATCHES "unknown key")
      fail("rejected as an unknown key, not after the parse: ${err}")
    endif()
  endif()

  if(NOT DEFINED post_parse_${name})
    set(arg "workload=synthetic;pattern=nosuch")
    expect_error("${arg}")
    if(NOT err MATCHES "unknown pattern 'nosuch'")
      fail("the reason does not name the unknown pattern: ${err}")
    endif()
  endif()

  foreach(arg IN LISTS bad_lists_${name})
    expect_error("${arg}")
    string(REGEX REPLACE "=.*" "" key "${arg}")
    if(NOT err MATCHES "'nosuch'")
      fail("the reason does not name the unknown entry: ${err}")
    elseif(NOT err MATCHES "^${name}: ${key}: ")
      fail("the reason does not start with the list key '${key}': ${err}")
    elseif(err MATCHES "_from_string")
      fail("the reason names a C++ function, not the user's key: ${err}")
    endif()
  endforeach()

  if(name MATCHES "^fig1[12]_")
    set(arg "workloads=trace;trace_file=${program}/trace.noctrace")
    expect_error("${arg}")
    if(NOT err MATCHES "cannot open output file")
      fail("the reason does not name the unwritable trace file: ${err}")
    endif()
  endif()

  if(name STREQUAL "perf_baseline")
    # Below a regular file, so no directory of that name can exist.
    set(arg "out=${program}/baseline.json")
    expect_error("${arg}")
    if(NOT err MATCHES "cannot open output file")
      fail("the reason does not name the unwritable output: ${err}")
    endif()
    # This script is a readable file that is not a baseline.
    set(arg "compare=${CMAKE_CURRENT_LIST_FILE}")
    expect_error("${arg}")
    if(NOT err MATCHES "cannot parse baseline")
      fail("the reason does not name the unparsable baseline: ${err}")
    endif()
  endif()
endforeach()

list(LENGTH programs count)
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} contract violation(s) over ${count} programs")
endif()
message(STATUS "command-line contract holds for ${count} programs")
