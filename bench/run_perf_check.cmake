# ctest driver for the perf_check_bench entry (see CMakeLists.txt here):
# runs the GA benchmarks fresh with JSON output, then gates the medians
# against the checked-in baselines via tools/check_bench.py.  The suite runs
# TWICE and the checker takes the per-benchmark minimum of the two medians:
# on the shared 1-core CI container, scheduling jitter only ever adds time,
# so best-of-2 strips load spikes without masking real regressions.
# Inputs: BENCH_MICRO, PYTHON, CHECK_SCRIPT, BASELINES (list of
# artifacts/BENCH_*.json records), OUT_JSON.

set(bench_args
  "--benchmark_filter=BM_GaFitnessKernel|^BM_GaSurrogateSearch$|^BM_GaSurrogateSearchMetricsOn$|^BM_GaPolish|^BM_GaDeltaKernel|^BM_SweepFanout"
  --benchmark_min_time=0.5
  --benchmark_repetitions=7
  --benchmark_report_aggregates_only=true
  --benchmark_format=json)

execute_process(
  COMMAND "${BENCH_MICRO}" ${bench_args} "--benchmark_out=${OUT_JSON}"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench_micro failed (rc=${bench_rc})")
endif()

execute_process(
  COMMAND "${BENCH_MICRO}" ${bench_args} "--benchmark_out=${OUT_JSON}.2"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench_micro rerun failed (rc=${bench_rc})")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECK_SCRIPT}" ${BASELINES}
    --fresh "${OUT_JSON}" --fresh "${OUT_JSON}.2"
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_bench.py reported a regression (rc=${check_rc})")
endif()
