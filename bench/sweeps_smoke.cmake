# Smoke test for bench/sweeps: runs every sweep at one field and 2 simulated
# seconds on the calling thread, then checks the exit status, each figure's
# CSV (header plus one row per point) and that an unknown sweep name exits 2.
#
#   cmake -DSWEEPS=<path to sweeps> -DOUT_DIR=<scratch dir> -P sweeps_smoke.cmake

# The CSVs are appended to, so start from an empty directory.
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(ENV{WSN_FIELDS} 1)
set(ENV{WSN_SIM_TIME} 2)
set(ENV{WSN_JOBS} 1)
set(ENV{WSN_CSV} "${OUT_DIR}")

execute_process(COMMAND "${SWEEPS}" RESULT_VARIABLE status
                OUTPUT_FILE "${OUT_DIR}/stdout.txt")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "sweeps exited with ${status}")
endif()

foreach(figure_points fig5_density:7 fig6_failures:7 fig7_random_sources:7
                      fig8_sinks:5 fig9_sources:5 fig10_linear:5)
  string(REPLACE ":" ";" pair "${figure_points}")
  list(GET pair 0 figure)
  list(GET pair 1 points)
  set(csv "${OUT_DIR}/${figure}.csv")
  if(NOT EXISTS "${csv}")
    message(FATAL_ERROR "${figure}: no CSV written")
  endif()
  file(STRINGS "${csv}" lines)
  list(LENGTH lines count)
  math(EXPR expected "${points} + 1")
  if(NOT count EQUAL expected)
    message(FATAL_ERROR "${figure}.csv has ${count} lines, want ${expected}")
  endif()
  list(GET lines 0 header)
  if(NOT header MATCHES "^x,energy_opp,energy_greedy,")
    message(FATAL_ERROR "${figure}.csv header: ${header}")
  endif()
endforeach()

execute_process(COMMAND "${SWEEPS}" no_such_sweep RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "sweeps no_such_sweep exited with ${status}, want 2")
endif()
