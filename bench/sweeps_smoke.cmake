# Smoke test for bench/sweeps: runs every sweep at one field and 2 simulated
# seconds on the calling thread, then checks the exit status, every row's CSV
# against its recorded one under results/ and that an unknown name exits 2.
#
#   cmake -DSWEEPS=<path to sweeps> -DOUT_DIR=<scratch dir>
#         -DRESULTS_DIR=<repo>/results -P sweeps_smoke.cmake

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

# Every recorded CSV, and no other, is written, with its recorded header and
# line count (one line per point; the point lists do not depend on the scale).
file(GLOB written RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.csv")
file(GLOB recorded RELATIVE "${RESULTS_DIR}" "${RESULTS_DIR}/*.csv")
if(NOT written STREQUAL recorded)
  message(FATAL_ERROR "CSVs written: ${written}\nCSVs recorded: ${recorded}")
endif()
foreach(csv ${recorded})
  file(STRINGS "${OUT_DIR}/${csv}" lines)
  file(STRINGS "${RESULTS_DIR}/${csv}" want)
  list(LENGTH lines count)
  list(LENGTH want expected)
  list(GET lines 0 header)
  list(GET want 0 want_header)
  if(NOT count EQUAL expected OR NOT header STREQUAL want_header)
    message(FATAL_ERROR "${csv}: ${count} lines, header ${header}\n"
                        "recorded: ${expected} lines, header ${want_header}")
  endif()
endforeach()

execute_process(COMMAND "${SWEEPS}" no_such_sweep RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "sweeps no_such_sweep exited with ${status}, want 2")
endif()
