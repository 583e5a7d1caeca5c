# Flag fuzz: runs each driver with every numeric flag set, one at a time,
# to each of a few hostile values, on top of a small base run.  Passes only
# if every run exits 0 (ran) or 2 (usage error with a message) - never a
# signal, a sanitizer report or any other status.
#
#   cmake -DCGSIM=<bin> -DTUNING_ADVISOR=<bin> -DFAILURE_DRILL=<bin>
#         -DTRACE_RING=<bin> -DFAULT_CAMPAIGN=<bin> -P flag_fuzz.cmake
#
# --shards and --threads get no valid value above 8: a multi-shard run asks
# the thread pool for one thread per shard.  2^63 is rejected before any
# thread starts (both flags stop at kMaxThreads, common/flags.hpp).
set(values "-1" "0" "" "9223372036854775808" "abc")
set(pool_values "-1" "0" "" "abc" "8" "9223372036854775808")
set(base --n=64 --trials=1)

set(cgsim_flags
    n l o eps f pre-fail online-fail seed trials jitter drop-prob drop
    burst-loss burst-mean restart restart-outage stragglers
    straggler-factor partition byz t corr drain-extra series-stride
    sample-k heartbeat)
set(cgsim_pool_flags threads shards)
set(tuning_advisor_flags n active l o runs psi f)
set(tuning_advisor_pool_flags)
set(failure_drill_flags
    n trials seed drop-prob burst-loss burst-mean restart stragglers byz
    heartbeat)
set(failure_drill_pool_flags threads shards)
set(trace_ring_flags n t seed corr f)
set(trace_ring_pool_flags)
set(fault_campaign_flags n seed trials byz heartbeat)
set(fault_campaign_pool_flags threads)

set(failures "")
set(runs 0)
foreach(prog cgsim tuning_advisor failure_drill trace_ring fault_campaign)
  string(TOUPPER "${prog}" var)
  set(bin "${${var}}")
  # The sample reservoir is read only when a sample is written.
  set(extra "")
  if(prog STREQUAL "cgsim")
    set(extra --sample-out=flag_fuzz_sample.jsonl)
  endif()
  foreach(kind "" _pool)
    if(kind STREQUAL "_pool")
      set(vals ${pool_values})
    else()
      set(vals ${values})
    endif()
    foreach(flag IN LISTS ${prog}${kind}_flags)
      foreach(v IN LISTS vals)
        execute_process(COMMAND "${bin}" ${base} ${extra} "--${flag}=${v}"
                        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
        math(EXPR runs "${runs} + 1")
        if(NOT rc STREQUAL "0" AND NOT rc STREQUAL "2")
          string(APPEND failures
                 "  ${prog} --${flag}=${v}: exit status '${rc}'\n${err}\n")
        endif()
      endforeach()
    endforeach()
  endforeach()
endforeach()
file(REMOVE flag_fuzz_sample.jsonl)
if(failures)
  message(FATAL_ERROR "flag fuzz: runs ended by neither 0 nor 2:\n${failures}")
endif()
message(STATUS "flag fuzz: ${runs} runs, every one exited 0 or 2")
