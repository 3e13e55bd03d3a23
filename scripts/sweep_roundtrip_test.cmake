# End-to-end assertion for the sweep persistence layer, run as a ctest
# target (see CMakeLists.txt). Drives a real figure binary through the three
# workflows that must agree bit-for-bit on stdout:
#
#   1. cold run   — every cell simulated, cache populated
#   2. warm run   — zero simulations, all cells loaded from the cache
#   3. 2 shards into separate caches, folded with merge_results --into,
#      then an unsharded pass over the merged cache (zero simulations)
#   4. fault-injected keep-going run (3 cells fail, manifest written), then
#      a fault-free resume that simulates only those 3 cells and reproduces
#      the clean cold stdout bit-for-bit; fail-fast aborts naming the cell
#   5. --isolate=process: cold and warm isolated runs match the in-process
#      stdout bit-for-bit (warm forks nothing); a crash/hang/throw-injected
#      isolated sweep survives all three worker deaths, attributes them in
#      the v2 manifest (signal numbers), drops repro bundles, streams the
#      JSONL event feed, and resumes fault-free to the clean cold stdout
#   6. observability is result-neutral: a --probe-interval + --trace-out run
#      over the unprobed cache is simulation-free (same fingerprints), a cold
#      probed run writes cache entries an unprobed warm run replays
#      bit-for-bit, and the figure output is a byte-exact prefix of the
#      probed run's (the probe table is purely additive)
#
# Inputs: -DFIGURE=<bench binary> -DMERGE_TOOL=<merge_results binary>
#         -DWORK_DIR=<scratch dir>
#         -DCELLS=<total sweep cells at --reps=2> (default 20, the fig16 grid;
#          the churn driver registers a second instance with its own count)
# Also asserts the unknown-flag error names the new sweep flags.

foreach(var FIGURE MERGE_TOOL WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweep_roundtrip_test: missing -D${var}")
  endif()
endforeach()

if(NOT DEFINED CELLS)
  set(CELLS 20)
endif()
math(EXPR HALF "${CELLS} / 2")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Small but real: the reduced fig16 grid at a short horizon (20 scenarios).
set(ARGS --reps=2 --jobs=2 --seed=3 --duration=8)

function(run_figure out_var err_var)
  execute_process(
    COMMAND ${FIGURE} ${ARGS} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "figure run failed (${code}): ${FIGURE} ${ARGS} ${ARGN}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

# --- 1+2: cold then warm against the same cache -------------------------------
run_figure(cold_out cold_err --cache=${WORK_DIR}/cache)
if(NOT cold_err MATCHES "simulated=${CELLS}")
  message(FATAL_ERROR "cold run did not simulate the full sweep:\n${cold_err}")
endif()

run_figure(warm_out warm_err --cache=${WORK_DIR}/cache)
if(NOT warm_err MATCHES "hits=${CELLS} simulated=0")
  message(FATAL_ERROR "warm-cache run was not simulation-free:\n${warm_err}")
endif()
if(NOT cold_out STREQUAL warm_out)
  message(FATAL_ERROR "warm-cache stdout differs from cold run")
endif()

# --- 3: two shards, separate caches, merged by the tool -----------------------
run_figure(s0_out s0_err --cache=${WORK_DIR}/shard0 --shard-index=0 --shard-count=2
           --summary-out=${WORK_DIR}/sum0.txt)
run_figure(s1_out s1_err --cache=${WORK_DIR}/shard1 --shard-index=1 --shard-count=2
           --summary-out=${WORK_DIR}/sum1.txt)
foreach(err IN ITEMS "${s0_err}" "${s1_err}")
  if(NOT err MATCHES "simulated=${HALF} skipped=${HALF}")
    message(FATAL_ERROR "shard did not simulate exactly its half:\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${MERGE_TOOL} --into=${WORK_DIR}/merged ${WORK_DIR}/shard0 ${WORK_DIR}/shard1
  RESULT_VARIABLE merge_code
  OUTPUT_VARIABLE merge_out
  ERROR_VARIABLE merge_err)
if(NOT merge_code EQUAL 0)
  message(FATAL_ERROR "merge_results failed: ${merge_out}${merge_err}")
endif()
if(NOT merge_out MATCHES "copied=${CELLS}")
  message(FATAL_ERROR "merge_results did not fold both shards: ${merge_out}")
endif()

run_figure(merged_out merged_err --cache=${WORK_DIR}/merged)
if(NOT merged_err MATCHES "hits=${CELLS} simulated=0")
  message(FATAL_ERROR "merged-cache run was not simulation-free:\n${merged_err}")
endif()
if(NOT cold_out STREQUAL merged_out)
  message(FATAL_ERROR "2-shard merged stdout differs from the unsharded run")
endif()

# --- summary fold -------------------------------------------------------------
execute_process(
  COMMAND ${MERGE_TOOL} --summaries=${WORK_DIR}/summary.txt ${WORK_DIR}/sum0.txt
          ${WORK_DIR}/sum1.txt
  RESULT_VARIABLE sum_code
  OUTPUT_VARIABLE sum_out
  ERROR_VARIABLE sum_err)
if(NOT sum_code EQUAL 0 OR NOT sum_out MATCHES "${CELLS} runs")
  message(FATAL_ERROR "summary fold failed: ${sum_out}${sum_err}")
endif()

# --- 4: fault-injected keep-going sweep, then resume --------------------------
# Three cells fail persistently (two throws, one hang the in-process poll
# preempts at the deadline); the sweep must complete the rest, write a
# 3-entry failure manifest, and a fault-free resume over the same cache must
# simulate ONLY those 3 cells and reproduce the clean cold stdout bit-for-bit.
math(EXPR HEALTHY "${CELLS} - 3")
run_figure(fault_out fault_err --cache=${WORK_DIR}/fault-cache --keep-going
           --max-retries=1 --cell-deadline=3
           --inject-faults=throw@1:*,throw@4:*,hang@2:*
           --summary-out=${WORK_DIR}/fault-sum.txt)
if(NOT fault_err MATCHES "failed=3 retried=3 timed_out=1")
  message(FATAL_ERROR "keep-going sweep did not isolate the injected faults:\n${fault_err}")
endif()
if(NOT fault_err MATCHES "simulated=${HEALTHY}")
  message(FATAL_ERROR "keep-going sweep lost healthy cells:\n${fault_err}")
endif()
if(NOT EXISTS "${WORK_DIR}/fault-sum.txt.failures")
  message(FATAL_ERROR "keep-going sweep wrote no failure manifest")
endif()
file(READ "${WORK_DIR}/fault-sum.txt.failures" manifest)
if(NOT manifest MATCHES "failures 3")
  message(FATAL_ERROR "failure manifest does not list exactly 3 cells:\n${manifest}")
endif()

run_figure(resume_out resume_err --cache=${WORK_DIR}/fault-cache)
if(NOT resume_err MATCHES "hits=${HEALTHY} simulated=3")
  message(FATAL_ERROR "resume did not simulate exactly the failed cells:\n${resume_err}")
endif()
if(NOT cold_out STREQUAL resume_out)
  message(FATAL_ERROR "resumed sweep stdout differs from the clean cold run")
endif()

# --- 5: process isolation (--isolate=process) ---------------------------------
# Cold isolated run: every cell simulates in a forked worker, stdout must be
# bit-identical to the in-process cold run.
run_figure(iso_out iso_err --cache=${WORK_DIR}/iso-cache --isolate=process)
if(NOT iso_err MATCHES "simulated=${CELLS}")
  message(FATAL_ERROR "isolated cold run did not simulate the full sweep:\n${iso_err}")
endif()
if(NOT cold_out STREQUAL iso_out)
  message(FATAL_ERROR "--isolate=process stdout differs from the in-process cold run")
endif()

# Warm isolated run: the parent-side cache probes answer everything — zero
# simulations means zero forks.
run_figure(iso_warm_out iso_warm_err --cache=${WORK_DIR}/iso-cache --isolate=process)
if(NOT iso_warm_err MATCHES "hits=${CELLS} simulated=0")
  message(FATAL_ERROR "warm isolated run was not simulation-free:\n${iso_warm_err}")
endif()
if(NOT cold_out STREQUAL iso_warm_out)
  message(FATAL_ERROR "warm isolated stdout differs from the cold run")
endif()

# Crash/hang/throw containment: a worker that aborts (SIGABRT), a worker that
# hangs until the SIGKILL deadline, and a clean in-worker throw. The sweep
# survives all three, attributes each correctly in the manifest, drops repro
# bundles for the abnormal deaths, and streams the JSONL event feed.
run_figure(crash_out crash_err --cache=${WORK_DIR}/iso-fault-cache --keep-going
           --isolate=process --cell-deadline=3
           --inject-faults=crash@1:*,hang@2:*,throw@4:*
           --summary-out=${WORK_DIR}/iso-sum.txt
           --events-out=${WORK_DIR}/iso-events.jsonl)
if(NOT crash_err MATCHES "failed=3 retried=0 timed_out=1 crashed=1")
  message(FATAL_ERROR "isolated sweep did not contain the injected faults:\n${crash_err}")
endif()
if(NOT crash_err MATCHES "simulated=${HEALTHY}")
  message(FATAL_ERROR "isolated faulted sweep lost healthy cells:\n${crash_err}")
endif()
file(READ "${WORK_DIR}/iso-sum.txt.failures" iso_manifest)
if(NOT iso_manifest MATCHES "failures 3")
  message(FATAL_ERROR "isolated manifest does not list exactly 3 cells:\n${iso_manifest}")
endif()
if(NOT iso_manifest MATCHES "cell 1 [^\n]* crashed 1 signal 6")
  message(FATAL_ERROR "crashed worker not attributed as SIGABRT:\n${iso_manifest}")
endif()
if(NOT iso_manifest MATCHES "cell 2 [^\n]* timed_out 1 crashed 0 signal 9")
  message(FATAL_ERROR "hung worker not attributed as a SIGKILL timeout:\n${iso_manifest}")
endif()
foreach(cell IN ITEMS 1 2)
  foreach(f IN ITEMS scenario.toml stderr.txt status.txt repro.txt)
    if(NOT EXISTS "${WORK_DIR}/iso-sum.txt.crashes/cell-${cell}/${f}")
      message(FATAL_ERROR "missing repro bundle file: cell-${cell}/${f}")
    endif()
  endforeach()
endforeach()
file(READ "${WORK_DIR}/iso-events.jsonl" iso_events)
foreach(ev IN ITEMS cell_start cell_done cell_crashed cell_killed cell_failed)
  if(NOT iso_events MATCHES "\"event\":\"${ev}\"")
    message(FATAL_ERROR "event feed is missing ${ev}:\n${iso_events}")
  endif()
endforeach()

# Fault-free in-process resume over the isolated cache: only the 3 failed
# cells simulate, and stdout converges to the clean cold run bit-for-bit.
run_figure(iso_resume_out iso_resume_err --cache=${WORK_DIR}/iso-fault-cache)
if(NOT iso_resume_err MATCHES "hits=${HEALTHY} simulated=3")
  message(FATAL_ERROR "isolated resume did not simulate exactly the failed cells:\n${iso_resume_err}")
endif()
if(NOT cold_out STREQUAL iso_resume_out)
  message(FATAL_ERROR "isolated-crash resume stdout differs from the clean cold run")
endif()

# --- 6: the obs layer is result-neutral ---------------------------------------
# A probed + traced run over the unprobed warm cache must hit every cell:
# --probe-interval and --trace-out are excluded from the cache fingerprint
# because they cannot change results.
run_figure(probed_out probed_err --cache=${WORK_DIR}/cache
           --probe-interval=0.5 --trace-out=${WORK_DIR}/trace.json
           --events-out=${WORK_DIR}/probed-events.jsonl)
if(NOT probed_err MATCHES "hits=${CELLS} simulated=0")
  message(FATAL_ERROR "probed warm run re-simulated cached cells — the probe leaked into the fingerprint:\n${probed_err}")
endif()
if(NOT EXISTS "${WORK_DIR}/trace.json")
  message(FATAL_ERROR "probed run wrote no chrome trace")
endif()
file(READ "${WORK_DIR}/trace.json" trace_json)
if(NOT trace_json MATCHES "traceEvents")
  message(FATAL_ERROR "trace.json is not a chrome://tracing export:\n${trace_json}")
endif()

# A cold probed run must write cache entries an unprobed warm run replays
# bit-for-bit — the probe's presence never perturbs the simulated results.
run_figure(probed_cold_out probed_cold_err --cache=${WORK_DIR}/probed-cache
           --probe-interval=0.5)
if(NOT probed_cold_err MATCHES "simulated=${CELLS}")
  message(FATAL_ERROR "probed cold run did not simulate the full sweep:\n${probed_cold_err}")
endif()
string(FIND "${probed_cold_out}" "${cold_out}" prefix_at)
if(NOT prefix_at EQUAL 0)
  message(FATAL_ERROR "probed stdout does not start with the unprobed figure output")
endif()
if(NOT probed_cold_out MATCHES "\\[probe\\] cell")
  message(FATAL_ERROR "probed cold run printed no probe series table:\n${probed_cold_out}")
endif()
run_figure(probed_warm_out probed_warm_err --cache=${WORK_DIR}/probed-cache)
if(NOT probed_warm_err MATCHES "hits=${CELLS} simulated=0")
  message(FATAL_ERROR "unprobed run over the probed cache re-simulated — probed payloads differ:\n${probed_warm_err}")
endif()
if(NOT cold_out STREQUAL probed_warm_out)
  message(FATAL_ERROR "unprobed replay of probed cache entries differs from the clean cold run")
endif()

# Fail-fast (the default) must abort on the first injected fault and name
# the failing cell in the error.
execute_process(
  COMMAND ${FIGURE} ${ARGS} --inject-faults=throw@1:*
  RESULT_VARIABLE ff_code
  OUTPUT_VARIABLE ff_out
  ERROR_VARIABLE ff_err)
if(ff_code EQUAL 0 OR NOT ff_err MATCHES "sweep cell #1")
  message(FATAL_ERROR "fail-fast did not abort naming the cell: ${ff_err}")
endif()

# --- CLI guard rails ----------------------------------------------------------
# A missing merge source must fail with a one-line error naming the path,
# not a traceback or a silent empty merge.
execute_process(
  COMMAND ${MERGE_TOOL} --into=${WORK_DIR}/merged-missing ${WORK_DIR}/no-such-shard
  RESULT_VARIABLE missing_code
  OUTPUT_VARIABLE missing_out
  ERROR_VARIABLE missing_err)
if(missing_code EQUAL 0 OR NOT missing_err MATCHES "no-such-shard' is not a directory")
  message(FATAL_ERROR "merge_results did not reject a missing source dir: ${missing_err}")
endif()

execute_process(
  COMMAND ${FIGURE} --duration=8 --shard-index=2 --shard-count=2
  RESULT_VARIABLE bad_code
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_err)
if(bad_code EQUAL 0 OR NOT bad_err MATCHES "--shard-index \\(2\\) must be < --shard-count")
  message(FATAL_ERROR "out-of-range shard index not rejected: ${bad_err}")
endif()

execute_process(
  COMMAND ${FIGURE} --bogus-flag
  RESULT_VARIABLE unknown_code
  OUTPUT_VARIABLE unknown_out
  ERROR_VARIABLE unknown_err)
if(unknown_code EQUAL 0 OR NOT unknown_err MATCHES "--shard-index" OR
   NOT unknown_err MATCHES "--cache")
  message(FATAL_ERROR "unknown-flag listing misses the sweep flags: ${unknown_err}")
endif()

message(STATUS "sweep persistence round-trip OK: cold == warm == 2-shard merged == faulted+resumed")
