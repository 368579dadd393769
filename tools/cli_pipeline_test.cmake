# Drives the CLI end to end: template -> solve -> optimize -> placement.
set(mix "${WORK_DIR}/cli-pipeline-mix.ini")

execute_process(COMMAND ${CLI} template OUTPUT_FILE ${mix} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "template failed: ${rc}")
endif()

execute_process(COMMAND ${CLI} solve ${mix} --alloc=uniform:1,1,1,5
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "254")
  message(FATAL_ERROR "solve failed (rc=${rc}): ${out}")
endif()

execute_process(COMMAND ${CLI} solve ${mix} --alloc=even
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "140")
  message(FATAL_ERROR "solve even failed (rc=${rc}): ${out}")
endif()

execute_process(COMMAND ${CLI} optimize ${mix} --objective=total
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "254")
  message(FATAL_ERROR "optimize failed (rc=${rc}): ${out}")
endif()

execute_process(COMMAND ${CLI} placement ${mix} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "placement failed (rc=${rc}): ${out}")
endif()

# Two bandwidth-bound NUMA-bad apps with their data on node 0 of a 2x4
# machine: one suggested home move separates them, each then owns its node
# and its whole 40 GB/s (20 GFLOPS each).
set(homed "${WORK_DIR}/cli-pipeline-homed.ini")
file(WRITE ${homed} "[machine]
name = homed-2x4
nodes = 2
cores_per_node = 4
core_gflops = 10
node_bandwidth = 40
link_bandwidth = 5

[app.bad-1]
ai = 0.5
placement = bad
home = 0
[app.bad-2]
ai = 0.5
placement = bad
home = 0
")
execute_process(COMMAND ${CLI} placement ${homed} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
string(REGEX MATCHALL "move: " moves "${out}")
list(LENGTH moves move_count)
if(NOT rc EQUAL 0 OR NOT move_count EQUAL 1 OR NOT out MATCHES "total: 40.00 GFLOPS")
  message(FATAL_ERROR "placement of two homed apps failed (rc=${rc}, ${move_count} moves): ${out}")
endif()

execute_process(COMMAND ${CLI} solve ${mix} --alloc=bogus
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "bogus allocation spec unexpectedly accepted")
endif()
